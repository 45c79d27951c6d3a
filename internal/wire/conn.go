package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// connBufCap bounds the frame buffers a Conn keeps between frames. A
// frame larger than this (anti-entropy fetches run to a few hundred
// KiB) is still read and written whole, but its buffer is released
// afterwards rather than pinned for the life of the connection.
const connBufCap = 64 << 10

// Conn frames messages over one byte stream. Reads go through a
// bufio.Reader, so a frame costs one read(2) in the common case, and
// land in a buffer reused from frame to frame; Decode copies every
// field out of it, so no decoded message aliases that buffer. Writes
// encode into a reused buffer and issue exactly one Write per frame —
// a protocol invariant: the fault-injecting conn wrapper in
// internal/netchord treats each Write as one message when deciding
// drops and duplicates.
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

// ReadMsg reads exactly one frame. It returns io.EOF when the stream
// ends cleanly between frames and io.ErrUnexpectedEOF when it ends
// inside one; otherwise it accepts and rejects exactly what Decode
// does.
func (c *Conn) ReadMsg() (*Msg, error) {
	hdr, err := c.r.Peek(HeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	plen := binary.BigEndian.Uint32(hdr[12:16])
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	n := HeaderLen + int(plen)
	frame := slices.Grow(c.rbuf[:0], n)[:n]
	c.rbuf = frame
	if cap(frame) > connBufCap {
		c.rbuf = nil
	}
	if _, err := io.ReadFull(c.r, frame); err != nil {
		return nil, err // the header is buffered, so never a bare io.EOF
	}
	m, _, err := Decode(frame)
	return m, err
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
