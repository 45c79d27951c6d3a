package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"unsafe"
)

// connBufCap bounds the frame buffers a Conn keeps between frames, and
// the slices a Msg keeps across ReadMsg calls. A frame larger than this
// (anti-entropy fetches run to a few hundred KiB) is still read and
// written whole, but its buffers are released afterwards rather than
// pinned for the life of the connection.
const connBufCap = 64 << 10

// Conn frames messages over one byte stream. Reads go through a
// bufio.Reader, so a frame costs one read(2) in the common case, and
// land in a buffer reused from frame to frame. ReadMsg decodes into a
// Msg the caller owns: the Msg owns its slices until the next ReadMsg
// into that same Msg, which refills them in place, and it never
// aliases the read buffer. A warm Msg therefore reads a frame without
// allocating. Writes encode into a reused buffer and issue exactly one
// Write per frame — a protocol invariant: the fault-injecting conn
// wrapper in internal/netchord treats each Write as one message when
// deciding drops and duplicates.
//
// A Conn is not safe for concurrent use. After any error the stream
// may be mid-frame, so callers discard the connection.
type Conn struct {
	w    io.Writer
	r    *bufio.Reader
	rbuf []byte
	wbuf []byte
}

// NewConn returns a Conn reading and writing frames on rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{w: rw, r: bufio.NewReader(rw)}
}

// ReadMsg reads exactly one frame into m, reusing m's slices and
// strings (see Conn). It returns io.EOF when the stream ends cleanly
// between frames and io.ErrUnexpectedEOF when it ends inside one;
// otherwise it accepts and rejects exactly what Decode does. After an
// error m's contents are unspecified.
func (c *Conn) ReadMsg(m *Msg) error {
	m.shed() // before waiting: an idle Msg pins no large frame
	hdr, err := c.r.Peek(HeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	plen := binary.BigEndian.Uint32(hdr[12:16])
	if plen > MaxPayload {
		return fmt.Errorf("%w: payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	n := HeaderLen + int(plen)
	frame := slices.Grow(c.rbuf[:0], n)[:n]
	c.rbuf = frame
	if cap(frame) > connBufCap {
		c.rbuf = nil
	}
	if _, err := io.ReadFull(c.r, frame); err != nil {
		return err // the header is buffered, so never a bare io.EOF
	}
	_, err = m.decode(frame)
	return err
}

// shed drops each of m's slices whose memory, element values included
// and kept elements past len too (see keep), exceeds connBufCap, the
// bound Conn keeps on its own buffers. List and Value stay under it by
// their caps (MaxListLen, MaxValueLen).
func (m *Msg) shed() {
	recs := cap(m.Recs) * int(unsafe.Sizeof(Rec{}))
	for _, rec := range withKept(m.Recs, m.kept.recs) { // elements past them hold no value
		recs += cap(rec.Value)
	}
	if recs > connBufCap {
		m.Recs, m.kept.recs = nil, 0
	}
	if cap(m.Tasks)*int(unsafe.Sizeof(Task{})) > connBufCap {
		m.Tasks = nil
	}
	if cap(m.Metas)*int(unsafe.Sizeof(Meta{})) > connBufCap {
		m.Metas = nil
	}
}

// WriteMsg encodes m and writes the complete frame with one Write call.
func (c *Conn) WriteMsg(m *Msg) error {
	frame, err := Append(c.wbuf[:0], m)
	c.wbuf = frame[:0]
	if cap(frame) > connBufCap {
		c.wbuf = nil
	}
	if err != nil {
		return err
	}
	_, err = c.w.Write(frame)
	return err
}
