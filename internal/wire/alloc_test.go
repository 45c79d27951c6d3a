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
// nothing, reading into a warm Msg allocates nothing, and every frame
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
