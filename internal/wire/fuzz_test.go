package wire

import (
	"bytes"
	"reflect"
	"testing"

	"chordbalance/internal/ids"
)

// FuzzWireRoundTrip locks in the codec's two safety properties:
//
//  1. Append→Decode identity: any message assembled from fuzz inputs
//     that Append accepts must decode back to exactly the same struct
//     (after masking to the type's field set, which Append guarantees).
//  2. Decoding arbitrary bytes never panics and never over-allocates:
//     element storage allocated while decoding is bounded by the input
//     length, enforced structurally by reader.count.
//
// Both directions run on every input: the raw bytes go straight to
// Decode, and the structured inputs drive the round trip.
func FuzzWireRoundTrip(f *testing.F) {
	for ty := TPing; ty < typeCount; ty++ {
		frame, err := Append(nil, &Msg{Type: ty, Req: uint64(ty)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, byte(ty), uint64(1), []byte("value"), "addr:1", uint64(2), true)
	}
	// fuzzMsg's type byte for TJoinOK is TJoinOK-1 (it skips TInvalid).
	f.Add([]byte{'C', 'B', Version, 1}, byte(TJoinOK-1), uint64(0), []byte{}, "", uint64(0), false)
	// Collector traffic with real Stats blobs: a host's report, a
	// streaming client's, and the cluster view; then a report stamped
	// with the previous frame version, one cut short, and an unknown
	// type byte, which Decode must each refuse.
	host := AppendStats(nil, &Stats{Hosts: 1, Consumed: 40, Residual: 2, BusyTicks: 9, Capacity: 1, StoreAcked: 5})
	stream := AppendStats(nil, &Stats{StreamChunks: 30, StreamDeadlineMiss: 2, StreamRebuffers: 1, StreamBytes: 3000})
	report, err := Append(nil, &Msg{Type: TReport, Req: 3, From: NodeRef{ID: ids.FromUint64(101)}, Value: host})
	if err != nil {
		f.Fatal(err)
	}
	streamReport, err := Append(nil, &Msg{Type: TReport, Req: 4, From: NodeRef{ID: ids.FromUint64(7)}, Value: stream})
	if err != nil {
		f.Fatal(err)
	}
	view, err := Append(nil, &Msg{Type: TStatsOK, Req: 5, Value: host})
	if err != nil {
		f.Fatal(err)
	}
	oldVersion := append([]byte(nil), report...)
	oldVersion[2] = Version - 1
	unknown := append([]byte(nil), report...)
	unknown[3] = byte(typeCount)
	f.Add(report, byte(TReport), uint64(3), host, "", uint64(0), false)
	f.Add(streamReport, byte(TReport), uint64(4), stream, "", uint64(0), false)
	f.Add(view, byte(TStatsOK), uint64(5), host, "", uint64(0), false)
	f.Add(oldVersion, byte(TReport), uint64(3), host, "", uint64(0), false)
	f.Add(report[:len(report)-1], byte(TReport), uint64(3), host[:len(host)-1], "", uint64(0), false)
	f.Add(unknown, byte(typeCount), uint64(3), host, "", uint64(0), false)

	f.Fuzz(func(t *testing.T, raw []byte, ty byte, req uint64, val []byte, addr string, a uint64, flag bool) {
		// Direction 1: arbitrary bytes must never panic the decoder, and
		// a successful decode must re-encode to the identical frame
		// (canonical form: Decode∘Append is the identity on valid frames).
		if m, n, err := Decode(raw); err == nil {
			re, err := Append(nil, m)
			if err != nil {
				t.Fatalf("decoded message failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, raw[:n]) {
				t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", raw[:n], re)
			}
		}
		// A Conn reading the same bytes as a stream must reach the same
		// verdict as Decode.
		checkSameVerdict(t, raw)

		// Direction 2: a structured message round-trips exactly.
		in := fuzzMsg(ty, req, val, addr, a, flag)
		frame, err := Append(nil, in)
		if err != nil {
			t.Fatalf("encode of in-bounds message failed: %v", err)
		}
		out, n, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode of encoded message failed: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch\n in: %+v\nout: %+v", in, out)
		}
	})
}

// fuzzMsg builds a valid, in-bounds message of a type chosen by ty from
// fuzz inputs, with every field that type carries set.
func fuzzMsg(ty byte, req uint64, val []byte, addr string, a uint64, flag bool) *Msg {
	typ := Type(ty%byte(typeCount-1) + 1) // valid, non-TInvalid
	in := &Msg{Type: typ, Req: req}
	mask := Fields(typ)
	if mask&fKey != 0 {
		in.Key = ids.FromUint64(a)
	}
	if mask&fKey2 != 0 {
		in.Key2 = ids.FromUint64(a ^ 0x5a5a)
	}
	if len(addr) > MaxAddrLen {
		addr = addr[:MaxAddrLen]
	}
	if mask&fFrom != 0 {
		in.From = NodeRef{ID: ids.FromBytes(val), Addr: addr}
	}
	if mask&fNode != 0 {
		in.Node = NodeRef{ID: ids.FromUint64(req), Addr: addr}
	}
	if mask&fList != 0 && flag {
		in.List = []NodeRef{{ID: ids.FromUint64(a), Addr: addr}}
	}
	if mask&fRecs != 0 && len(val) <= MaxValueLen {
		in.Recs = []Rec{{Key: ids.FromUint64(a), Ver: req, Value: normalize(val)}}
	}
	if mask&fTasks != 0 {
		in.Tasks = []Task{{Key: ids.FromUint64(req), Units: a}}
	}
	if mask&fMetas != 0 {
		meta := Meta{Key: ids.FromUint64(a), Ver: req}
		copy(meta.Sum[:], val)
		in.Metas = []Meta{meta}
	}
	if mask&fValue != 0 && len(val) <= MaxValueLen {
		in.Value = normalize(val)
	}
	if mask&fA != 0 {
		in.A = a
	}
	if mask&fB != 0 {
		in.B = a ^ req
	}
	if mask&fC != 0 {
		in.C = a + req
	}
	if mask&fFlag != 0 {
		in.Flag = flag
	}
	if mask&fText != 0 {
		text := addr
		if len(text) > MaxTextLen {
			text = text[:MaxTextLen]
		}
		in.Text = text
	}
	return in
}

// normalize maps empty slices to nil, matching the decoder's convention
// so DeepEqual compares structurally identical messages.
func normalize(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// FuzzDecodeInto locks in the reuse rules of decoding into a Msg the
// caller owns. For two valid frames A and B, built with zero to five
// list entries, records, tasks and metas of differing values and
// addresses:
//
//  1. decoding B into a Msg left by A equals Decode(B), with nil and
//     empty slices alike: a reused slice, record value or string keeps
//     nothing of A, and every field B's type lacks is reset;
//  2. decoding A again into that Msg equals Decode(A): what B's type
//     lacked and the Msg kept from A for reuse leaks nothing either;
//  3. a Msg read from a Conn does not change when a second Msg is then
//     read from the same Conn.
func FuzzDecodeInto(f *testing.F) {
	ty := func(t Type) byte { return byte(t - 1) } // fuzzMsg's type byte for t
	f.Add(ty(TJoinOK), ty(TJoinOK), byte(5), byte(2), []byte("value"), "127.0.0.1:9001", uint64(1), true)
	f.Add(ty(TTransfer), ty(TTransfer), byte(5), byte(2), []byte("value"), "127.0.0.1:9001", uint64(1), true)
	f.Add(ty(TReplicate), ty(TReplicate), byte(1), byte(1), bytes.Repeat([]byte{7}, 64), "", uint64(3), false)
	f.Add(ty(TSyncFetchOK), ty(TPing), byte(4), byte(0), []byte("abc"), "x", uint64(0), false)
	f.Add(ty(TFindSuccessorOK), ty(TGetOK), byte(3), byte(1), []byte{}, "peer", uint64(9), true)
	f.Add(ty(TError), ty(TError), byte(0), byte(0), []byte("e"), "no route to key", uint64(2), true)
	f.Add(ty(TError), ty(TGetPredOK), byte(0), byte(0), []byte("e"), "no route to key", uint64(2), true)
	// B's type lacks a field A carries, so A's third decode reuses what
	// the Msg kept across B.
	f.Add(ty(TSuccListOK), ty(TGetPredOK), byte(5), byte(0), []byte{}, "127.0.0.1:9001", uint64(4), true)
	f.Add(ty(TReplicate), ty(TGetPred), byte(1), byte(0), bytes.Repeat([]byte{7}, 64), "", uint64(3), false)
	f.Add(ty(TReplicate), ty(TNotify), byte(3), byte(0), []byte("value"), "127.0.0.1:9002", uint64(5), false)
	f.Add(ty(TFindSuccessorOK), ty(TSuccListOK), byte(4), byte(2), []byte{}, "peer:1", uint64(6), true)
	f.Add(ty(TNotify), ty(TGetSuccList), byte(0), byte(0), []byte{}, "127.0.0.1:9003", uint64(7), false)
	f.Add(ty(TTransfer), ty(TSyncKeysOK), byte(5), byte(3), []byte("value"), "x", uint64(8), true)

	f.Fuzz(func(t *testing.T, tyA, tyB, nA, nB byte, val []byte, addr string, a uint64, flag bool) {
		if len(val) > MaxValueLen {
			val = val[:MaxValueLen]
		}
		if len(addr) > MaxAddrLen {
			addr = addr[:MaxAddrLen]
		}
		frameA, err := Append(nil, variedMsg(tyA, nA, val, addr, a, flag))
		if err != nil {
			t.Fatalf("encode A: %v", err)
		}
		// B reuses A's bytes and addresses in part, so some of its
		// strings equal A's and some do not.
		frameB, err := Append(nil, variedMsg(tyB, nB, val[len(val)/2:], addr[len(addr)/3:], a^0xff, !flag))
		if err != nil {
			t.Fatalf("encode B: %v", err)
		}
		wantA, _, err := Decode(frameA)
		if err != nil {
			t.Fatalf("decode A: %v", err)
		}
		wantB, _, err := Decode(frameB)
		if err != nil {
			t.Fatalf("decode B: %v", err)
		}

		var m Msg
		if _, err := m.decode(frameA); err != nil {
			t.Fatal(err)
		}
		if _, err := m.decode(frameB); err != nil {
			t.Fatal(err)
		}
		checkPastLen(t, &m)
		if !reflect.DeepEqual(canon(&m), canon(wantB)) {
			t.Fatalf("B decoded over A differs from Decode(B)\nover: %+v\nnew:  %+v", m, *wantB)
		}
		if _, err := m.decode(frameA); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canon(&m), canon(wantA)) {
			t.Fatalf("A decoded over B over A differs from Decode(A)\nover: %+v\nnew:  %+v", m, *wantA)
		}
		checkPastLen(t, &m)

		c := readConn(bytes.NewReader(append(append([]byte(nil), frameA...), frameB...)))
		var x, y Msg
		if err := c.ReadMsg(&x); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadMsg(&y); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canon(&x), canon(wantA)) || !reflect.DeepEqual(canon(&y), canon(wantB)) {
			t.Fatalf("reading B changed the Msg read from A\nA: %+v\nwant: %+v", x, *wantA)
		}
	})
}

// checkPastLen fails unless every List and Recs element past len and
// past the elements m keeps for reuse is zero: a frame with fewer
// elements must pin none of an earlier frame's addresses or values.
func checkPastLen(t *testing.T, m *Msg) {
	t.Helper()
	for i, r := range m.List[len(withKept(m.List, m.kept.list)):cap(m.List)] {
		if r != (NodeRef{}) {
			t.Fatalf("List element %d past len+kept holds %+v", i, r)
		}
	}
	for i, r := range m.Recs[len(withKept(m.Recs, m.kept.recs)):cap(m.Recs)] {
		if r.Key != ids.Zero || r.Ver != 0 || r.Value != nil {
			t.Fatalf("Recs element %d past len+kept holds %+v", i, r)
		}
	}
}

// variedMsg builds a valid message of a type chosen by ty, with every
// field the type carries set and n%6 elements in each of its lists.
// Element i gets a value and address cut to a different length, some
// of them empty.
func variedMsg(ty, n byte, val []byte, addr string, a uint64, flag bool) *Msg {
	m := fuzzMsg(ty, a, val, addr, a, flag)
	mask := Fields(m.Type)
	k := int(n % 6)
	cut := func(i int) int { return (i * 7) % (len(val) + 1) }
	ref := func(i int) NodeRef {
		return NodeRef{ID: ids.FromUint64(a + uint64(i)), Addr: addr[:(i*3)%(len(addr)+1)]}
	}
	m.List, m.Recs, m.Tasks, m.Metas = nil, nil, nil, nil
	for i := 0; i < k; i++ {
		if mask&fList != 0 {
			m.List = append(m.List, ref(i))
		}
		if mask&fRecs != 0 {
			m.Recs = append(m.Recs, Rec{Key: ids.FromUint64(a ^ uint64(i)), Ver: uint64(i), Value: val[:cut(i)]})
		}
		if mask&fTasks != 0 {
			m.Tasks = append(m.Tasks, Task{Key: ids.FromUint64(uint64(i)), Units: a + uint64(i)})
		}
		if mask&fMetas != 0 {
			meta := Meta{Key: ids.FromUint64(uint64(i) << 8), Ver: a}
			copy(meta.Sum[:], val[cut(i):])
			m.Metas = append(m.Metas, meta)
		}
	}
	if mask&fFrom != 0 {
		m.From = ref(k)
	}
	if mask&fNode != 0 {
		m.Node = ref(k + 1)
	}
	return m
}

// canon is m with every empty slice, record values included, nil, and
// without the memory it keeps for reuse: the decoder may keep capacity
// behind an empty slice, and the comparisons here treat nil and empty
// alike.
func canon(m *Msg) Msg {
	c := *m
	c.kept = kept{}
	if len(c.List) == 0 {
		c.List = nil
	}
	if len(c.Recs) == 0 {
		c.Recs = nil
	} else {
		c.Recs = append([]Rec(nil), c.Recs...)
		for i := range c.Recs {
			if len(c.Recs[i].Value) == 0 {
				c.Recs[i].Value = nil
			}
		}
	}
	if len(c.Tasks) == 0 {
		c.Tasks = nil
	}
	if len(c.Metas) == 0 {
		c.Metas = nil
	}
	if len(c.Value) == 0 {
		c.Value = nil
	}
	return c
}
