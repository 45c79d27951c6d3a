package netchord

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
)

// noDeadlines is a net.Conn whose deadline setters do nothing. net.Pipe
// arms a fresh timer for every deadline, which a TCP conn does not, so
// serving through it counts what serveConn itself costs.
type noDeadlines struct{ net.Conn }

func (noDeadlines) SetDeadline(time.Time) error      { return nil }
func (noDeadlines) SetReadDeadline(time.Time) error  { return nil }
func (noDeadlines) SetWriteDeadline(time.Time) error { return nil }

// servePipe serves n on one end of a net.Pipe through serveConn and the
// node's per-connection handler, as acceptLoop does, and returns the
// framed client end. Cleanup closes the pipe and waits for serveConn.
func servePipe(t *testing.T, n *Node, raw func(net.Conn) net.Conn) *wire.Conn {
	t.Helper()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveConn(n.cfg, raw(srv), srv, n.handler())
	}()
	t.Cleanup(func() {
		_ = cli.Close()
		<-done
	})
	return wire.NewConn(cli)
}

// TestServeConnSteadyStateAllocs pins the read path's cost on a warm
// connection: one TGet round trip through serveConn, read into a reply
// the caller owns and then keeps (as Client.GetVer does), allocates
// exactly once, for the value the caller keeps. The server's decode,
// store read and reply cost nothing.
func TestServeConnSteadyStateAllocs(t *testing.T) {
	n := arcNode(t, NewPipeTransport(), 100, 0)
	key := ids.FromUint64(42)
	want := bytes.Repeat([]byte{0xa5}, 64)
	if _, err := n.st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	fc := servePipe(t, n, func(c net.Conn) net.Conn { return noDeadlines{c} })
	req := &wire.Msg{Type: wire.TGet, Key: key}
	var got []byte
	var callErr error
	allocs := testing.AllocsPerRun(200, func() {
		var reply wire.Msg
		if err := fc.WriteMsg(req); err != nil {
			callErr = err
			return
		}
		if err := fc.ReadMsg(&reply); err != nil {
			callErr = err
			return
		}
		if reply.Type != wire.TGetOK || !reply.Flag {
			callErr = fmt.Errorf("reply %v found=%v %q", reply.Type, reply.Flag, reply.Text)
		}
		got = reply.Value
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %x, want %x", got, want)
	}
	if allocs != 1 {
		t.Errorf("a warm TGet round trip allocates %v, want 1 (the caller's value)", allocs)
	}
}

// TestHandlersKeepNoRequestMemory sends one connection's worth of
// requests whose memory a handler might keep — a TTransfer's record
// and task, a TReplicate's and a TPut's value, a TNotify's sender —
// then the same types again with every key, value and address byte
// different and the same lengths, so a decoder reusing the request's
// memory in place would rewrite anything still pointing into it. What
// the first frames left must be unchanged.
func TestHandlersKeepNoRequestMemory(t *testing.T) {
	n, err := NewNode(testConfig(), NewPipeTransport(), nil, fill(0xfe), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.Create() // after the first notify the arc is (0x0101…, 0xfefe…]
	fc := servePipe(t, n, func(c net.Conn) net.Conn { return c })

	type round struct {
		from                wire.NodeRef
		repKey, putKey, key ids.ID
		task                ids.ID
		units               uint64
		repVal, putVal, val []byte
	}
	first := round{
		from:   wire.NodeRef{ID: fill(0x01), Addr: "aaaa:1"},
		repKey: fill(0x30), putKey: fill(0x40), key: fill(0x50), task: fill(0x60), units: 5,
		repVal: bytes.Repeat([]byte{0x11}, 64), putVal: bytes.Repeat([]byte{0x22}, 64), val: bytes.Repeat([]byte{0x33}, 64),
	}
	// second.from sits outside (first.from, self), so notify keeps first.from.
	second := round{
		from:   wire.NodeRef{ID: fill(0xff), Addr: "bbbb:2"},
		repKey: fill(0xcf), putKey: fill(0xbf), key: fill(0xaf), task: fill(0x9f), units: 7,
		repVal: bytes.Repeat([]byte{0xee}, 64), putVal: bytes.Repeat([]byte{0xdd}, 64), val: bytes.Repeat([]byte{0xcc}, 64),
	}
	var reply wire.Msg
	req := uint64(0)
	send := func(m *wire.Msg) {
		t.Helper()
		req++
		m.Req = req
		if err := fc.WriteMsg(m); err != nil {
			t.Fatal(err)
		}
		if err := fc.ReadMsg(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.Type != wire.TAck || reply.Req != req {
			t.Fatalf("%v: reply %v %q", m.Type, reply.Type, reply.Text)
		}
	}
	// Largest frame first: the server's read buffer then never grows,
	// so every later frame is read over the same bytes.
	for i, r := range []round{first, second} {
		send(&wire.Msg{Type: wire.TTransfer, A: uint64(i + 1),
			Recs:  []wire.Rec{{Key: r.key, Ver: 1, Value: r.val}},
			Tasks: []wire.Task{{Key: r.task, Units: r.units}}})
		send(&wire.Msg{Type: wire.TReplicate, Recs: []wire.Rec{{Key: r.repKey, Ver: 1, Value: r.repVal}}})
		send(&wire.Msg{Type: wire.TPut, Key: r.putKey, Value: r.putVal})
		send(&wire.Msg{Type: wire.TNotify, From: r.from})
	}

	if pred, ok := n.Predecessor(); !ok || pred != first.from {
		t.Errorf("predecessor %v (set %v), want %v", pred, ok, first.from)
	}
	for _, kv := range []struct {
		key ids.ID
		val []byte
	}{{first.repKey, first.repVal}, {first.putKey, first.putVal}, {first.key, first.val}} {
		if got, _, ok, err := n.st.Get(kv.key); err != nil || !ok || !bytes.Equal(got, kv.val) {
			t.Errorf("key %s reads %x (found %v, %v), want %x", kv.key.Short(), got, ok, err, kv.val)
		}
	}
	n.mu.Lock()
	units := n.tasks[first.task]
	n.mu.Unlock()
	if units != first.units {
		t.Errorf("transferred task holds %d units, want %d", units, first.units)
	}
}

// fill returns the ID with every byte b.
func fill(b byte) ids.ID {
	return ids.FromBytes(bytes.Repeat([]byte{b}, ids.Bytes))
}
