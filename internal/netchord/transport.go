package netchord

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"time"
)

// Transport abstracts how nodes reach each other: loopback TCP for real
// sockets (and multi-process clusters) or an in-process pipe fabric for
// tests. Both yield ordinary net.Conn streams, so every layer above —
// framing, pooling, fault injection — is transport-agnostic.
type Transport interface {
	// Listen opens a server endpoint. addr "" asks the transport to
	// pick one (TCP: 127.0.0.1 with an ephemeral port).
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener's address within timeout.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// TCP is the loopback TCP transport.
type TCP struct{}

// Listen implements Transport. An empty addr binds 127.0.0.1:0.
func (TCP) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

// Dial implements Transport.
func (TCP) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// PipeTransport is an in-process fabric: every Listen registers a named
// endpoint, every Dial synthesizes a buffered, deadline-capable duplex
// pipe to it (see pipe). It exists so large-cluster tests and the
// Lockstep driver can run without consuming file descriptors or ports;
// the byte stream, framing, timeout, and fault behavior are those of
// TCP, except that a lost frame is noticed at once instead of after the
// RPC deadline.
type PipeTransport struct {
	mu        sync.Mutex
	nextID    int
	listeners map[string]*pipeListener
}

// NewPipeTransport returns an empty fabric.
func NewPipeTransport() *PipeTransport {
	return &PipeTransport{listeners: make(map[string]*pipeListener)}
}

// Listen implements Transport. An empty addr allocates "pipe:<n>".
func (t *PipeTransport) Listen(addr string) (net.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		addr = "pipe:" + strconv.Itoa(t.nextID)
		t.nextID++
	}
	if _, taken := t.listeners[addr]; taken {
		return nil, fmt.Errorf("netchord: pipe address %q already bound", addr)
	}
	ln := &pipeListener{
		t:      t,
		addr:   pipeAddr(addr),
		accept: make(chan net.Conn, 16),
		closed: make(chan struct{}),
	}
	t.listeners[addr] = ln
	return ln, nil
}

// Dial implements Transport.
func (t *PipeTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.mu.Lock()
	ln := t.listeners[addr]
	t.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("netchord: pipe dial %q: connection refused", addr)
	}
	client, server := newPipe(ln.addr)
	select {
	case ln.accept <- server:
		return client, nil
	case <-ln.closed:
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("netchord: pipe dial %q: connection refused", addr)
	case <-time.After(timeout):
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("netchord: pipe dial %q: timeout", addr)
	}
}

// pipeListener implements net.Listener over the fabric's accept queue.
type pipeListener struct {
	t      *PipeTransport
	addr   pipeAddr
	accept chan net.Conn

	closeOnce sync.Once
	closed    chan struct{}
}

// Accept implements net.Listener.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener; it unregisters the endpoint so later
// dials are refused, like a closed TCP listener.
func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.t.mu.Lock()
		delete(l.t.listeners, string(l.addr))
		l.t.mu.Unlock()
		// Drain connections parked in the accept queue.
		for {
			select {
			case c := <-l.accept:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr implements net.Listener.
func (l *pipeListener) Addr() net.Addr { return l.addr }

// pipeAddr implements net.Addr for fabric endpoints.
type pipeAddr string

// Network implements net.Addr.
func (pipeAddr) Network() string { return "pipe" }

// String implements net.Addr.
func (a pipeAddr) String() string { return string(a) }

// pipe is one in-memory duplex connection: two ends sharing one lock,
// each holding the bytes its peer wrote and it has not read yet, and
// each with a wake signal for its one reader that allocates nothing, so
// a steady stream of frames costs no garbage. Unlike
// net.Pipe a write never waits for its reader, and the pipe knows when
// a frame was lost. If both ends wait to read while no bytes are in
// flight either way and no write is held in a fault delay, nothing can
// ever arrive: the end with the earlier read deadline fails at once
// with the timeout error it would get at that deadline. Over TCP a
// black-holed frame produces the same error, only after the deadline
// passes; here it costs no wall time.
type pipe struct {
	mu   sync.Mutex
	ends [2]pipeEnd
}

// pipeEnd is one end's state; callers hold pipe.mu.
type pipeEnd struct {
	in      bytes.Buffer // written by the peer, not yet read here
	closed  bool
	reading bool // blocked in Read with in empty
	held    int  // writes from this end held in a fault delay
	readDL  time.Time
	timer   *time.Timer // wakes the waiters at readDL
	// wake holds at most one pending wake for this end's reader, sent
	// on every change it must see. A wake sent after the reader's last
	// check but before it parks waits in the slot, so it is never lost;
	// one the reader no longer needs costs it one more check.
	wake chan struct{}
}

// pipeConn is one end of a pipe as a net.Conn; side 0 is the dialer.
type pipeConn struct {
	p      *pipe
	side   int
	remote pipeAddr
}

// newPipe returns the dialer's and the listener's end of a fresh pipe
// to the listener at addr.
func newPipe(addr pipeAddr) (client, server *pipeConn) {
	p := &pipe{}
	p.ends[0].wake = make(chan struct{}, 1)
	p.ends[1].wake = make(chan struct{}, 1)
	return &pipeConn{p: p, side: 0, remote: addr}, &pipeConn{p: p, side: 1, remote: "pipe"}
}

// wakeLocked wakes side's reader to re-check the pipe's state. The
// send never blocks: a wake already pending covers this one.
func (p *pipe) wakeLocked(side int) {
	select {
	case p.ends[side].wake <- struct{}{}:
	default:
	}
}

// broadcastLocked wakes the readers at both ends.
func (p *pipe) broadcastLocked() {
	p.wakeLocked(0)
	p.wakeLocked(1)
}

// broadcast is broadcastLocked for the deadline timers.
func (p *pipe) broadcast() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.broadcastLocked()
}

// lostLocked is the loss rule: it reports whether the end side, about
// to wait in Read, should instead time out now because its peer waits
// too, nothing is in flight, and side's read deadline comes first.
// Deadlines order the two ends; an end without one never expires, and
// a tie goes against the dialer.
func (p *pipe) lostLocked(side int) bool {
	me, peer := &p.ends[side], &p.ends[1-side]
	if !peer.reading || peer.closed || me.in.Len() > 0 || peer.in.Len() > 0 || me.held > 0 || peer.held > 0 {
		return false
	}
	switch {
	case me.readDL.IsZero():
		return false
	case peer.readDL.IsZero():
		return true
	}
	return me.readDL.Before(peer.readDL) || (me.readDL.Equal(peer.readDL) && side == 0)
}

// Read implements net.Conn.
func (c *pipeConn) Read(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	me, peer := &p.ends[c.side], &p.ends[1-c.side]
	for {
		switch {
		case me.closed:
			return 0, io.ErrClosedPipe
		case me.in.Len() > 0:
			return me.in.Read(b)
		case peer.closed:
			return 0, io.EOF
		case !me.readDL.IsZero() && !time.Now().Before(me.readDL), p.lostLocked(c.side):
			return 0, os.ErrDeadlineExceeded
		}
		// The peer may be the one the loss rule expires now that this
		// end waits too: wake it to apply the rule.
		me.reading = true
		if p.lostLocked(1 - c.side) {
			p.wakeLocked(1 - c.side)
		}
		p.mu.Unlock()
		<-me.wake // a deadline timer broadcasts too
		p.mu.Lock()
		me.reading = false
	}
}

// Write implements net.Conn. The bytes are buffered for the peer, so a
// write never waits for its reader and a write deadline has nothing to
// bound. Only a reader blocked on the peer needs waking: the loss rule
// cannot newly hold while bytes are in flight.
func (c *pipeConn) Write(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ends[c.side].closed || p.ends[1-c.side].closed {
		return 0, io.ErrClosedPipe
	}
	peer := &p.ends[1-c.side]
	peer.in.Write(b)
	if peer.reading {
		p.wakeLocked(1 - c.side)
	}
	return len(b), nil
}

// hold adds delta to this end's writes held in a fault delay, which the
// loss rule counts as in flight, and wakes the waiters.
func (c *pipeConn) hold(delta int) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.p.ends[c.side].held += delta
	if c.p.ends[0].reading || c.p.ends[1].reading {
		c.p.broadcastLocked()
	}
}

// Close implements net.Conn: the peer reads what was written, then EOF.
func (c *pipeConn) Close() error {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	me := &p.ends[c.side]
	if !me.closed {
		me.closed = true
		me.in.Reset()
		if me.timer != nil {
			me.timer.Stop()
		}
		p.broadcastLocked()
	}
	return nil
}

// SetReadDeadline implements net.Conn. A reader blocked on this end is
// woken to re-check its deadline and the loss rule's ordering; a peer
// waiting alone needs no wake, as this end applies the rule when it
// starts to wait.
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	me := &p.ends[c.side]
	me.readDL = t
	switch {
	case t.IsZero():
		if me.timer != nil {
			me.timer.Stop()
		}
	case me.timer == nil:
		me.timer = time.AfterFunc(time.Until(t), p.broadcast)
	default:
		me.timer.Reset(time.Until(t))
	}
	if me.reading {
		p.wakeLocked(c.side)
	}
	return nil
}

// SetDeadline implements net.Conn.
func (c *pipeConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn (see Write).
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }

// LocalAddr implements net.Conn.
func (c *pipeConn) LocalAddr() net.Addr { return pipeAddr("pipe") }

// RemoteAddr implements net.Conn.
func (c *pipeConn) RemoteAddr() net.Addr { return c.remote }
