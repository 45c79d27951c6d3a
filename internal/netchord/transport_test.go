package netchord

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
)

// readResult is one Read's outcome.
type readResult struct {
	n   int
	err error
}

// readAsync reads once from c on its own goroutine.
func readAsync(c net.Conn) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		n, err := c.Read(make([]byte, 16))
		out <- readResult{n, err}
	}()
	return out
}

// awaitReading waits until end side of p blocks in Read.
func awaitReading(t *testing.T, p *pipe, side int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		p.mu.Lock()
		reading := p.ends[side].reading
		p.mu.Unlock()
		if reading {
			return
		}
	}
	t.Fatalf("end %d never blocked in Read", side)
}

// isTimeout reports whether err is a net.Error timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestPipeLossRuleExpiresEarlierDeadline pins the loss rule: when both
// ends wait to read and nothing is in flight, the end with the earlier
// read deadline fails at once with a timeout, whichever end began
// waiting first, and the other end keeps waiting.
func TestPipeLossRuleExpiresEarlierDeadline(t *testing.T) {
	for _, earlyFirst := range []bool{true, false} {
		cli, srv := newPipe("pipe:test")
		now := time.Now()
		_ = cli.SetReadDeadline(now.Add(time.Hour))
		_ = srv.SetReadDeadline(now.Add(2 * time.Hour))
		var early, late <-chan readResult
		if earlyFirst {
			early = readAsync(cli)
			awaitReading(t, cli.p, 0)
			late = readAsync(srv)
		} else {
			late = readAsync(srv)
			awaitReading(t, srv.p, 1)
			early = readAsync(cli)
		}
		var r readResult
		select {
		case r = <-early:
		case <-time.After(10 * time.Second):
			t.Fatalf("earlyFirst=%v: the earlier deadline is still waiting", earlyFirst)
		}
		if !isTimeout(r.err) {
			t.Fatalf("earlyFirst=%v: earlier deadline got %v, want a timeout", earlyFirst, r.err)
		}
		select {
		case r := <-late:
			t.Fatalf("earlyFirst=%v: later deadline returned too: %+v", earlyFirst, r)
		case <-time.After(20 * time.Millisecond):
		}
		// The peer closing ends the survivor's wait with EOF.
		_ = cli.Close()
		if r := <-late; r.err != io.EOF {
			t.Fatalf("earlyFirst=%v: survivor after peer close: %v, want EOF", earlyFirst, r.err)
		}
	}
}

// TestPipeLossRuleStates checks the rule on the states that must not
// expire a reader: a peer not reading, bytes in flight either way, a
// write held in a fault delay, and an end without a deadline.
func TestPipeLossRuleStates(t *testing.T) {
	soon, later := time.Now().Add(time.Hour), time.Now().Add(2*time.Hour)
	for _, tc := range []struct {
		name string
		set  func(me, peer *pipeEnd)
		want bool
	}{
		{"both waiting", func(me, peer *pipeEnd) {}, true},
		{"peer not reading", func(me, peer *pipeEnd) { peer.reading = false }, false},
		{"bytes to me", func(me, peer *pipeEnd) { me.in.WriteString("x") }, false},
		{"bytes to peer", func(me, peer *pipeEnd) { peer.in.WriteString("x") }, false},
		{"my write held", func(me, peer *pipeEnd) { me.held = 1 }, false},
		{"peer write held", func(me, peer *pipeEnd) { peer.held = 1 }, false},
		{"peer deadline first", func(me, peer *pipeEnd) { me.readDL, peer.readDL = later, soon }, false},
		{"no deadline here", func(me, peer *pipeEnd) { me.readDL = time.Time{} }, false},
		{"no deadline there", func(me, peer *pipeEnd) { peer.readDL = time.Time{} }, true},
	} {
		end, _ := newPipe("pipe:test")
		p := end.p
		me, peer := &p.ends[0], &p.ends[1]
		me.readDL, peer.readDL = soon, later
		peer.reading = true
		tc.set(me, peer)
		if got := p.lostLocked(0); got != tc.want {
			t.Errorf("%s: lost = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPipeDelayedWriteIsNotLost holds one frame in a fault delay while
// both ends wait to read: the reader owed the frame must get it instead
// of timing out early, even though its deadline comes first.
func TestPipeDelayedWriteIsNotLost(t *testing.T) {
	nf, err := NewNetFaults(faults.Plan{Seed: 1, DelayRate: 1, MaxDelayTicks: 1}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := newPipe("pipe:test")
	now := time.Now()
	_ = srv.SetReadDeadline(now.Add(time.Hour))
	_ = cli.SetReadDeadline(now.Add(2 * time.Hour))
	cliReads := readAsync(cli)
	awaitReading(t, cli.p, 0)
	written := make(chan error, 1)
	go func() {
		_, err := nf.Wrap(cli, ids.FromUint64(1), ids.Zero).Write([]byte("late"))
		written <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cli.p.mu.Lock()
		held := cli.p.ends[0].held
		cli.p.mu.Unlock()
		if held > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the delayed write was never held")
		}
	}
	if r := <-readAsync(srv); r.err != nil || r.n != len("late") {
		t.Fatalf("reader owed a delayed frame: %+v, want the frame", r)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	if r := <-cliReads; r.err != io.EOF {
		t.Fatalf("dialer after peer close: %v, want EOF", r.err)
	}
}

// TestPipeWakeBeforeParkIsKept writes to a reader that has just
// decided to wait: it has marked itself reading and let go of the lock,
// but has not parked yet. The test holds the reader in that window by
// playing its part by hand, then parks: the wake the write sent must be
// waiting for it, or a reader would sleep with the frame in its buffer.
// A real Read then returns the frame.
func TestPipeWakeBeforeParkIsKept(t *testing.T) {
	cli, srv := newPipe("pipe:test")
	p := srv.p
	p.mu.Lock()
	p.ends[1].reading = true // the reader's last step before it unlocks
	p.mu.Unlock()
	if _, err := cli.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.ends[1].wake: // the reader parks
	case <-time.After(5 * time.Second):
		t.Fatal("a wake sent before the reader parked was lost")
	}
	p.mu.Lock()
	p.ends[1].reading = false
	p.mu.Unlock()
	if r := <-readAsync(srv); r.err != nil || r.n != 1 {
		t.Fatalf("read %+v, want the byte", r)
	}
}
