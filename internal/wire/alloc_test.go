package wire

import (
	"bytes"
	"io"
	"testing"

	"chordbalance/internal/ids"
)

// hotFrames are the two frames the networked hot paths decode most: a
// put with a 64-byte value and a found get reply. allocs is what Decode
// costs on one (the new *Msg and its value copy); reading one into a
// warm Msg costs nothing (TestConnAllocs). A codec change that lowers
// either should lower the constant, and one that raises it fails
// TestDecodeAllocs or TestConnAllocs first.
func hotFrames() []struct {
	name   string
	msg    *Msg
	allocs float64
} {
	value := make([]byte, 64)
	for i := range value {
		value[i] = byte(i)
	}
	return []struct {
		name   string
		msg    *Msg
		allocs float64
	}{
		{"put64", &Msg{Type: TPut, Req: 7, Key: ids.FromUint64(42), Value: value}, 2},
		{"getok64", &Msg{Type: TGetOK, Req: 7, Value: value, Flag: true, A: 3}, 2},
	}
}

// alternatingFrames are frame sequences one pooled connection carries
// in a steady ring, each read into one Msg: a replica's server reads
// its predecessor's pushes between that predecessor's stabilization
// requests, and a node's client reads replies of several types from its
// successor. The addresses repeat, as a steady ring's do, so a warm Msg
// decodes every frame of the sequence into memory an earlier frame of
// the same type left, though a frame of another type came between.
func alternatingFrames() []struct {
	name string
	msgs []*Msg
} {
	value := make([]byte, 64)
	list := make([]NodeRef, 8)
	for i := range list {
		list[i] = NodeRef{ID: ids.FromUint64(uint64(100 + i)), Addr: "127.0.0.1:" + string(rune('a'+i)) + "9001"}
	}
	pred := NodeRef{ID: ids.FromUint64(7), Addr: "127.0.0.1:40007"}
	replicate := &Msg{Type: TReplicate, Req: 1, Recs: []Rec{{Key: ids.FromUint64(42), Ver: 3, Value: value}}}
	return []struct {
		name string
		msgs []*Msg
	}{
		{"replicate,get_pred,replicate", []*Msg{replicate, {Type: TGetPred, Req: 2}, replicate}},
		{"get_pred_ok,succ_list_ok,find_successor_ok", []*Msg{
			{Type: TGetPredOK, Req: 3, Node: pred, Flag: true},
			{Type: TSuccListOK, Req: 4, List: list},
			{Type: TFindSuccessorOK, Req: 5, Node: pred, List: list},
		}},
	}
}

// TestDecodeAllocs pins Decode's allocation count on the hot frames.
func TestDecodeAllocs(t *testing.T) {
	for _, c := range hotFrames() {
		frame, err := Append(nil, c.msg)
		if err != nil {
			t.Fatal(err)
		}
		var decodeErr error
		got := testing.AllocsPerRun(200, func() {
			if _, _, err := Decode(frame); err != nil {
				decodeErr = err
			}
		})
		if decodeErr != nil {
			t.Fatalf("%s: %v", c.name, decodeErr)
		}
		if got != c.allocs {
			t.Errorf("%s: Decode allocates %v per frame, want %v", c.name, got, c.allocs)
		}
	}
}

// loopReader serves the same frame forever, so a Conn over it can be
// read in a loop without running dry.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// countWriter counts Write calls.
type countWriter struct{ writes int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestConnAllocs pins a warm Conn's per-frame cost: writing allocates
// nothing, reading into a warm Msg allocates nothing, also when frames
// of other types come between (alternatingFrames), and every frame
// — one over the buffer cap included — is exactly one Write, which the
// fault-injecting conn wrapper in internal/netchord counts as one
// message.
func TestConnAllocs(t *testing.T) {
	for _, c := range hotFrames() {
		w := NewConn(struct {
			io.Reader
			io.Writer
		}{nil, io.Discard})
		var writeErr error
		got := testing.AllocsPerRun(200, func() {
			if err := w.WriteMsg(c.msg); err != nil {
				writeErr = err
			}
		})
		if writeErr != nil {
			t.Fatalf("%s: %v", c.name, writeErr)
		}
		if got != 0 {
			t.Errorf("%s: WriteMsg allocates %v per frame, want 0", c.name, got)
		}

		frame, err := Append(nil, c.msg)
		if err != nil {
			t.Fatal(err)
		}
		r := readConn(&loopReader{frame: frame})
		var m Msg
		var readErr error
		got = testing.AllocsPerRun(200, func() {
			if err := r.ReadMsg(&m); err != nil {
				readErr = err
			}
		})
		if readErr != nil {
			t.Fatalf("%s: %v", c.name, readErr)
		}
		if got != 0 {
			t.Errorf("%s: ReadMsg into a warm Msg allocates %v per frame, want 0", c.name, got)
		}
	}

	for _, seq := range alternatingFrames() {
		var stream []byte
		for _, m := range seq.msgs {
			var err error
			if stream, err = Append(stream, m); err != nil {
				t.Fatal(err)
			}
		}
		r := readConn(&loopReader{frame: stream})
		var m Msg
		var readErr error
		got := testing.AllocsPerRun(100, func() {
			for range seq.msgs {
				if err := r.ReadMsg(&m); err != nil {
					readErr = err
				}
			}
		})
		if readErr != nil {
			t.Fatalf("%s: %v", seq.name, readErr)
		}
		if got != 0 {
			t.Errorf("%s: reading the sequence into one warm Msg allocates %v, want 0", seq.name, got)
		}
	}

	var cw countWriter
	w := NewConn(struct {
		io.Reader
		*countWriter
	}{nil, &cw})
	big := &Msg{Type: TSyncFetchOK, Recs: []Rec{
		{Key: ids.FromUint64(1), Ver: 1, Value: bytes.Repeat([]byte{1}, MaxValueLen)},
		{Key: ids.FromUint64(2), Ver: 1, Value: bytes.Repeat([]byte{2}, MaxValueLen)},
	}}
	for i, m := range []*Msg{hotFrames()[0].msg, big, {Type: TPing}} {
		if err := w.WriteMsg(m); err != nil {
			t.Fatal(err)
		}
		if cw.writes != i+1 {
			t.Fatalf("after %d frames (%v last): %d Write calls", i+1, m.Type, cw.writes)
		}
	}
}
