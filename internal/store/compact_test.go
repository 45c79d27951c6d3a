package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// churnStore runs ops random puts, applies and deletes over a pool of
// keys, with values of about vlen bytes.
func churnStore(t testing.TB, s *Store, rng *xrand.Rand, keys, ops, vlen int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		key := ids.FromUint64(rng.Uint64n(uint64(keys)))
		value := bytes.Repeat([]byte{byte(i)}, vlen/2+rng.Intn(vlen))
		var err error
		switch rng.Uint64n(8) {
		case 0:
			_, _, err = s.Delete(key)
		case 1:
			_, _, err = s.Apply(Rec{Key: key, Ver: rng.Uint64n(16), Value: value})
		default:
			_, err = s.Put(key, value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionCopiesLiveRecordsVerbatim pins compaction's output:
// the segments it writes hold exactly AppendRecord of each live record,
// in drain order (oldest segment first, then by offset), split by the
// append path's rotation rule. The cases rotate every few records,
// every few dozen, and not at all, where batches end on their size
// instead.
func TestCompactionCopiesLiveRecordsVerbatim(t *testing.T) {
	for _, tc := range []struct {
		segBytes        int64
		keys, ops, vlen int
	}{
		{256, 40, 600, 9},
		{1000, 64, 2000, 30},
		{1 << 20, 3000, 9000, 64},
	} {
		t.Run(fmt.Sprintf("seg%d", tc.segBytes), func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{SegmentBytes: tc.segBytes})
			churnStore(t, s, xrand.NewStream(uint64(tc.segBytes), 0), tc.keys, tc.ops, tc.vlen)

			// Compact freezes the active segment first, so it drains
			// every segment open now.
			want := [][]byte{nil}
			var live int
			for _, sg := range s.segs {
				data, err := os.ReadFile(sg.path)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(data); {
					rec, n, err := DecodeRecord(data[off:])
					if err != nil {
						t.Fatalf("segment %d offset %d: %v", sg.id, off, err)
					}
					if e, ok := s.index[rec.Key]; ok && e.seg == sg.id && e.off == int64(off) {
						enc, err := AppendRecord(nil, rec)
						if err != nil {
							t.Fatal(err)
						}
						cur := want[len(want)-1]
						if len(cur) > 0 && int64(len(cur)+len(enc)) > tc.segBytes {
							want = append(want, nil)
						}
						want[len(want)-1] = append(want[len(want)-1], enc...)
						live++
					}
					off += n
				}
			}
			first := s.nextSeg
			before := dumpState(t, s)
			st0 := s.Stats()
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			st1 := s.Stats()
			if st1.Segments != len(want) {
				t.Fatalf("%d segments after compaction, want %d", st1.Segments, len(want))
			}
			var wrote uint64
			for i, w := range want {
				got, err := os.ReadFile(filepath.Join(dir, segmentName(first+uint64(i))))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("segment %d: %d bytes differ from the %d AppendRecord gives", first+uint64(i), len(got), len(w))
				}
				wrote += uint64(len(w))
			}
			if d := st1.Appends - st0.Appends; d != uint64(live) {
				t.Errorf("compaction counted %d appends, want %d (one per live record)", d, live)
			}
			if d := st1.AppendBytes - st0.AppendBytes; d != wrote {
				t.Errorf("compaction counted %d append bytes, want %d", d, wrote)
			}
			if st1.DeadBytes != 0 || st1.TotalBytes != int64(wrote) {
				t.Errorf("after compaction: %d dead of %d bytes, want 0 of %d", st1.DeadBytes, st1.TotalBytes, wrote)
			}
			if after := dumpState(t, s); !reflect.DeepEqual(before, after) {
				t.Fatal("state changed across compaction")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re := open(t, dir, Options{SegmentBytes: tc.segBytes})
			defer func() { _ = re.Close() }()
			if after := dumpState(t, re); !reflect.DeepEqual(before, after) {
				t.Fatal("state changed across compaction and reopen")
			}
		})
	}
}

// TestTornCompactionBatchLosesNothing is the crash model for a batched
// copy: the source segment is still on disk (compaction deletes it only
// after the copies are synced) and the batch written behind it is torn
// at any byte. Every cut must reopen to every key's last acknowledged
// version, and compact again to the same state.
func TestTornCompactionBatchLosesNothing(t *testing.T) {
	master := t.TempDir()
	s := open(t, master, Options{})
	churnStore(t, s, xrand.NewStream(23, 0), 24, 120, 12)
	want := dumpState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(master, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	s = open(t, master, Options{})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(master)
	if err != nil || len(names) != 1 || names[0].Name() != segmentName(1) {
		t.Fatalf("compaction left %v (%v), want only %s", names, err, segmentName(1))
	}
	batch, err := os.ReadFile(filepath.Join(master, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) == 0 || len(batch) >= len(src) {
		t.Fatalf("copied %d of %d bytes: the log should hold dead records", len(batch), len(src))
	}

	for cut := 0; cut <= len(batch); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), src, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), batch[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := dumpState(t, re); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: reopened state differs\n got: %v\nwant: %v", cut, got, want)
		}
		if err := re.Compact(); err != nil {
			t.Fatalf("cut %d: compact: %v", cut, err)
		}
		if got := dumpState(t, re); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: state differs after a second compaction", cut)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactWhileReadingAndWriting compacts over and over while a
// writer overwrites and readers read: each batch moves index entries
// under live readers, and every read must still return a value its key
// was written with. The final state must survive a reopen.
func TestCompactWhileReadingAndWriting(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 2048})
	const keys = 32
	value := func(k, i int) []byte { return []byte(fmt.Sprintf("k%02d-%06d", k, i)) }
	for k := 0; k < keys; k++ {
		if _, err := s.Put(ids.FromUint64(uint64(k)), value(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			if _, err := s.Put(ids.FromUint64(uint64(i%keys)), value(i%keys, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := (i + r) % keys
				v, _, ok, err := s.Get(ids.FromUint64(uint64(k)))
				if err != nil || !ok || !bytes.HasPrefix(v, value(k, 0)[:4]) {
					t.Errorf("key %d: %q ok=%v err=%v", k, v, ok, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	before := dumpState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	defer func() { _ = re.Close() }()
	if after := dumpState(t, re); !reflect.DeepEqual(before, after) {
		t.Fatal("state changed across reopen")
	}
}

// failingReader serves src up to fail and then fails.
type failingReader struct {
	src  []byte
	fail int64
}

var errDisk = errors.New("disk gone")

func (r failingReader) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	if off < r.fail {
		n = copy(p, r.src[off:min(r.fail, int64(len(r.src)))])
	}
	if n < len(p) {
		return n, errDisk
	}
	return n, nil
}

// TestLogScanReadError: a read failure ends the scan with an error,
// distinct from a record that does not decode, after yielding exactly
// the records the window held whole.
func TestLogScanReadError(t *testing.T) {
	var seg []byte
	for i := 0; i < 8; i++ {
		var err error
		if seg, err = AppendRecord(seg, Rec{Key: ids.FromUint64(uint64(i)), Ver: 1, Value: make([]byte, 50)}); err != nil {
			t.Fatal(err)
		}
	}
	recLen := len(seg) / 8
	sc := logScan{win: make([]byte, 3*recLen)}
	sc.reset(failingReader{src: seg, fail: int64(4 * recLen)}, int64(len(seg)))
	n := 0
	for _, _, _, ok := sc.next(); ok; _, _, _, ok = sc.next() {
		n++
	}
	if n != 3 || !errors.Is(sc.err, errDisk) {
		t.Fatalf("yielded %d records, err %v; want 3 and %v", n, sc.err, errDisk)
	}
	sc.reset(failingReader{src: seg, fail: int64(len(seg))}, int64(len(seg)))
	for n = 0; ; n++ {
		if _, _, _, ok := sc.next(); !ok {
			break
		}
	}
	if n != 8 || sc.err != nil || sc.valid() != int64(len(seg)) {
		t.Fatalf("clean scan: %d records, err %v, valid %d of %d", n, sc.err, sc.valid(), len(seg))
	}
}

// netPutShape fills s the way one net-put-r3 store looks when it
// compacts: every key holds a 64-byte value, and overwrites have left
// about 70% of the log dead (store.dead_frac_end 0.70).
func netPutShape(b *testing.B, s *Store, keys []ids.ID, rounds int) {
	b.Helper()
	value := make([]byte, 64)
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if _, err := s.Put(k, value); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, k := range keys[:len(keys)/3] {
		if _, err := s.Put(k, value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact times one compaction of a store shaped like a
// net-put-r3 store (about 2 048 live 64-byte values, 70% of the log
// dead) and of one a quarter its size; once warm, a compaction's
// allocations do not grow with the records it scans. The store is file-backed without
// fsync on writes; the compaction's own syncs are timed.
func BenchmarkCompact(b *testing.B) {
	for _, n := range []int{512, 2048} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			rng := xrand.NewStream(45, 0)
			keys := make([]ids.ID, n)
			for i := range keys {
				keys[i] = ids.Random(rng)
			}
			// One compaction first, so the timed ones reuse its buffers.
			netPutShape(b, s, keys, 3)
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				netPutShape(b, s, keys, 2) // the log is all live after a compaction
				b.StartTimer()
				if err := s.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplay times Open and Close of the same net-put-r3-shaped
// log: replaying 3.3 records a key and hashing every value.
func BenchmarkReplay(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(46, 0)
	keys := make([]ids.ID, 2048)
	for i := range keys {
		keys[i] = ids.Random(rng)
	}
	netPutShape(b, s, keys, 3)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if re.Len() != len(keys) {
			b.Fatalf("replayed %d keys, want %d", re.Len(), len(keys))
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
