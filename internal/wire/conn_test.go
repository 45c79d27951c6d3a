package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"chordbalance/internal/ids"
)

// readConn returns a Conn that reads frames from r and discards writes.
func readConn(r io.Reader) *Conn {
	return NewConn(struct {
		io.Reader
		io.Writer
	}{r, io.Discard})
}

// checkSameVerdict fails t unless a Conn reading raw as a stream
// accepts its first frame exactly when Decode accepts raw.
func checkSameVerdict(t *testing.T, raw []byte) {
	t.Helper()
	_, _, decodeErr := Decode(raw)
	readErr := readConn(bytes.NewReader(raw)).ReadMsg(new(Msg))
	if (decodeErr == nil) != (readErr == nil) {
		t.Fatalf("verdicts differ on %x: Decode %v, ReadMsg %v", raw, decodeErr, readErr)
	}
}

// streamReaders are the ways a stream reaches a Conn in these tests:
// whole, one byte per Read, and half of each request per Read.
var streamReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// FuzzConnStream encodes one to four fuzz-built messages into one stream
// and reads them back through one Conn, each into its own Msg, however
// the stream is split into Reads. After each ReadMsg every message read
// so far must still equal its input: a Msg owns its slices until the
// next ReadMsg into that same Msg, and the Conn reuses its read buffer
// from frame to frame, so a decoded value, record, list address or text
// that aliased it would change when the next frame overwrote it.
func FuzzConnStream(f *testing.F) {
	f.Add(byte(3), byte(TJoinOK-1), uint64(1), []byte("value"), "addr:1", uint64(2), true) // fuzzMsg skips TInvalid
	f.Add(byte(2), byte(TPut), uint64(9), bytes.Repeat([]byte{0xab}, 300), "", uint64(0), false)
	f.Add(byte(1), byte(TError), uint64(5), []byte{}, "no route to key", uint64(7), true)
	f.Add(byte(3), byte(TFindSuccessorOK), uint64(3), []byte("x"), "127.0.0.1:9001", uint64(1), true)

	f.Fuzz(func(t *testing.T, count, ty byte, req uint64, val []byte, addr string, a uint64, flag bool) {
		in := make([]*Msg, 1+int(count%4))
		var stream []byte
		for i := range in {
			// Every message's bytes differ from its neighbours', so an
			// aliased field would show the overwrite.
			v := append([]byte(nil), val...)
			for j := range v {
				v[j] ^= byte(i + 1)
			}
			in[i] = fuzzMsg(ty+byte(i), req+uint64(i), v, string(rune('a'+i))+addr, a+uint64(i), flag)
			var err error
			if stream, err = Append(stream, in[i]); err != nil {
				t.Fatalf("encode of in-bounds message failed: %v", err)
			}
		}
		for _, sr := range streamReaders {
			c := readConn(sr.wrap(bytes.NewReader(stream)))
			out := make([]*Msg, len(in))
			for i := range in {
				out[i] = new(Msg)
				if err := c.ReadMsg(out[i]); err != nil {
					t.Fatalf("%s: frame %d: %v", sr.name, i, err)
				}
				for j := 0; j <= i; j++ {
					if !reflect.DeepEqual(in[j], out[j]) {
						t.Fatalf("%s: after frame %d, message %d changed\n in: %+v\nout: %+v", sr.name, i, j, in[j], out[j])
					}
				}
			}
			if err := c.ReadMsg(new(Msg)); err != io.EOF {
				t.Fatalf("%s: end of stream: got %v, want io.EOF", sr.name, err)
			}
		}
	})
}

// TestConnReleasesLargeBuffer sends a 256 KiB anti-entropy fetch reply
// and then a ping through one Conn, read into one Msg: both arrive
// intact, and neither the frame buffers nor the Msg keep the large
// frame's memory.
func TestConnReleasesLargeBuffer(t *testing.T) {
	big := &Msg{Type: TSyncFetchOK, Req: 1}
	for i := 0; i < 4; i++ {
		big.Recs = append(big.Recs, Rec{
			Key:   ids.FromUint64(uint64(i)),
			Ver:   uint64(i + 1),
			Value: bytes.Repeat([]byte{byte(i + 1)}, MaxValueLen),
		})
	}
	ping := &Msg{Type: TPing, Req: 2}
	var buf bytes.Buffer
	c := NewConn(&buf)
	for _, m := range []*Msg{big, ping} {
		if err := c.WriteMsg(m); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() < 4*MaxValueLen {
		t.Fatalf("stream is %d bytes, want over %d", buf.Len(), 4*MaxValueLen)
	}
	var got Msg
	for _, want := range []*Msg{big, ping} {
		if err := c.ReadMsg(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canon(want), canon(&got)) {
			t.Fatalf("%v: round trip mismatch", want.Type)
		}
	}
	if r, w := cap(c.rbuf), cap(c.wbuf); r > connBufCap || w > connBufCap {
		t.Errorf("retained buffers: read %d, write %d bytes; cap is %d", r, w, connBufCap)
	}
	if cap(got.Recs) != 0 {
		t.Errorf("the Msg kept %d records' capacity after the ping", cap(got.Recs))
	}
}

// TestConnTruncatedStream cuts a frame at every kind of boundary: a
// stream that ends inside a frame is io.ErrUnexpectedEOF, one that ends
// between frames io.EOF.
func TestConnTruncatedStream(t *testing.T) {
	frame, err := Append(nil, sample(TPut))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, HeaderLen - 1, HeaderLen, HeaderLen + 1, len(frame) - 1} {
		for _, sr := range streamReaders {
			c := readConn(sr.wrap(bytes.NewReader(frame[:cut])))
			if err := c.ReadMsg(new(Msg)); err != io.ErrUnexpectedEOF {
				t.Errorf("%s: cut at %d of %d: got %v, want io.ErrUnexpectedEOF", sr.name, cut, len(frame), err)
			}
		}
	}
	if err := readConn(bytes.NewReader(nil)).ReadMsg(new(Msg)); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

// TestConnVerdictMatchesDecode feeds a Conn the bytes of every sample
// frame with each byte in turn inverted, and every prefix of it: it
// accepts exactly the inputs Decode accepts. An oversized declared
// payload is refused before any of it is read.
func TestConnVerdictMatchesDecode(t *testing.T) {
	for ty := TPing; ty < typeCount; ty++ {
		good, err := Append(nil, sample(ty))
		if err != nil {
			t.Fatal(err)
		}
		for i := range good {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0xff
			checkSameVerdict(t, bad)
			checkSameVerdict(t, good[:i])
		}
		checkSameVerdict(t, good)
	}
	huge, err := Append(nil, &Msg{Type: TPing})
	if err != nil {
		t.Fatal(err)
	}
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff
	if err := readConn(bytes.NewReader(huge)).ReadMsg(new(Msg)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: got %v, want ErrTooLarge", err)
	}
}
