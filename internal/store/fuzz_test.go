package store

import (
	"bytes"
	"testing"

	"chordbalance/internal/ids"
)

// FuzzStoreRecord locks in the segment-record codec's safety contract:
//
//  1. Round trip: any record AppendRecord accepts decodes back to the
//     identical record, consuming exactly its own bytes.
//  2. Arbitrary bytes never panic DecodeRecord, and whatever it does
//     decode re-encodes to the identical bytes (the CRC makes a decode
//     of corrupt input vanishingly unlikely, but if the bytes check
//     out they ARE a canonical record).
//  3. Flipping any byte of a valid record makes it undecodable —
//     corruption is rejected, never misread (the replay-safety
//     property torn-tail recovery depends on).
func FuzzStoreRecord(f *testing.F) {
	seed, err := AppendRecord(nil, Rec{Key: ids.FromUint64(7), Ver: 3, Value: []byte("seed")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint64(1), []byte("value"), false, byte(0))
	f.Add([]byte{0, 0, 0, 33}, uint64(0), []byte{}, true, byte(9))

	f.Fuzz(func(t *testing.T, raw []byte, ver uint64, val []byte, tomb bool, flip byte) {
		// Direction 1: decoding arbitrary bytes must never panic, and a
		// successful decode must be canonical.
		if rec, n, err := DecodeRecord(raw); err == nil {
			re, err := AppendRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, raw[:n]) {
				t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", raw[:n], re)
			}
		}

		// Direction 2: structured round trip.
		if len(val) > MaxValueLen {
			val = val[:MaxValueLen]
		}
		in := Rec{Key: ids.FromBytes(raw), Ver: ver, Value: val}
		if tomb {
			in.Tombstone = true
			in.Value = nil
		}
		frame, err := AppendRecord(nil, in)
		if err != nil {
			t.Fatalf("encode of in-bounds record failed: %v", err)
		}
		out, n, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode of encoded record failed: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		if out.Key != in.Key || out.Ver != in.Ver || out.Tombstone != in.Tombstone ||
			!bytes.Equal(out.Value, in.Value) {
			t.Fatalf("round trip mismatch\n in: %+v\nout: %+v", in, out)
		}

		// Direction 3: single-byte corruption is always rejected. The
		// flipped byte position is fuzz-chosen; flipping the length
		// header may re-frame, but then the CRC covers the new frame's
		// body and fails (or the bytes run short).
		pos := int(flip) % len(frame)
		frame[pos] ^= 0xff
		if rec, _, err := DecodeRecord(frame); err == nil {
			t.Fatalf("corrupt record decoded at flip %d: %+v", pos, rec)
		}

		// Trailing concatenation: a record followed by junk still
		// decodes to exactly itself.
		frame[pos] ^= 0xff // restore
		cat := append(frame, 0xde, 0xad)
		out2, n2, err := DecodeRecord(cat)
		if err != nil || n2 != len(frame) || out2.Ver != in.Ver {
			t.Fatalf("concatenated decode: n=%d err=%v", n2, err)
		}
	})
}

// FuzzLogScan holds the windowed log scanner to the whole-buffer
// decoder: over arbitrary segment bytes it must yield exactly the
// records, offsets and encoded bytes that a DecodeRecord loop over the
// whole buffer yields, in order, and stop at the same valid-prefix
// length. Every window from the longest decoded record up to the whole
// input is tried, so window refills split the records at every byte,
// and so is the production window.
func FuzzLogScan(f *testing.F) {
	var seg []byte
	for i := 0; i < 5; i++ {
		var err error
		seg, err = AppendRecord(seg, Rec{Key: ids.FromUint64(uint64(i)), Ver: uint64(i + 1), Value: bytes.Repeat([]byte{byte(i)}, 7*i)})
		if err != nil {
			f.Fatal(err)
		}
	}
	tomb, err := AppendRecord(append([]byte(nil), seg...), Rec{Key: ids.FromUint64(9), Ver: 4, Tombstone: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(tomb)
	f.Add(seg[:len(seg)-3]) // torn tail
	corrupt := append([]byte(nil), seg...)
	corrupt[len(seg)/2] ^= 0x10
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		var want []Rec
		var offs []int
		valid, longest := 0, 1
		for valid < len(data) {
			rec, n, err := DecodeRecord(data[valid:])
			if err != nil {
				break
			}
			want, offs = append(want, rec), append(offs, valid)
			valid += n
			longest = max(longest, n)
		}
		win := make([]byte, max(len(data)+1, scanWindow))
		check := func(w int) {
			sc := logScan{win: win[:w]}
			sc.reset(bytes.NewReader(data), int64(len(data)))
			i := 0
			for rec, raw, off, ok := sc.next(); ok; rec, raw, off, ok = sc.next() {
				if i == len(want) {
					t.Fatalf("window %d: record %d at %d past the %d the decoder finds", w, i, off, len(want))
				}
				if off != int64(offs[i]) || !bytes.Equal(raw, data[off:off+int64(len(raw))]) ||
					rec.Key != want[i].Key || rec.Ver != want[i].Ver || rec.Tombstone != want[i].Tombstone ||
					!bytes.Equal(rec.Value, want[i].Value) {
					t.Fatalf("window %d: record %d at %d differs from the decoder's at %d", w, i, off, offs[i])
				}
				i++
			}
			if sc.err != nil {
				t.Fatalf("window %d: %v", w, sc.err)
			}
			if i != len(want) || sc.valid() != int64(valid) {
				t.Fatalf("window %d: %d records, valid prefix %d; decoder %d, %d", w, i, sc.valid(), len(want), valid)
			}
		}
		for w := longest; w <= len(data)+1; w++ {
			check(w)
		}
		check(scanWindow)
	})
}
