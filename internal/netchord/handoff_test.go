package netchord

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"chordbalance/internal/adversary"
	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// ringUnits sums the task units the live nodes hold.
func ringUnits(l *Lockstep) uint64 {
	var units uint64
	for _, n := range l.Nodes() {
		units += n.TaskUnits()
	}
	return units
}

// giverRing builds a two-node lockstep ring, p at 0.2 and the giver at
// 0.6, and gives the giver 40 task units at 0.3, in the arc of a joiner
// at 0.4, and 2 at its own ID.
func giverRing(t *testing.T) (*Lockstep, *Node) {
	t.Helper()
	at := []float64{0.2, 0.6}
	l, err := NewLockstep(Config{}, faults.Plan{}, 2, func() ids.ID {
		id := adversary.IDAtFraction(at[0])
		at = at[1:]
		return id
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	giver := l.Nodes()[1]
	giver.mu.Lock()
	giver.addTaskLocked(adversary.IDAtFraction(0.3), 40)
	giver.addTaskLocked(giver.ID(), 2)
	giver.mu.Unlock()
	return l, giver
}

// TestJoinHandoffToDeadJoinerKeepsUnits sends a giver the join of a
// node that has already closed: the push fails, the giver answers
// CodeUnavailable, and its task units and predecessor stay as they
// were. A leave afterwards does not wait on the failed hand-off.
func TestJoinHandoffToDeadJoinerKeepsUnits(t *testing.T) {
	l, giver := giverRing(t)
	dead, err := NewNode(l.cfg, l.tr, l.nf, adversary.IDAtFraction(0.4), "")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	var reply wire.Msg
	giver.handleJoin(&wire.Msg{Type: wire.TJoin, From: dead.Ref()}, &reply)
	if reply.Type != wire.TError || reply.A != CodeUnavailable {
		t.Fatalf("join of a dead node answered %v (code %d), want CodeUnavailable", reply.Type, reply.A)
	}
	if got := giver.TaskUnits(); got != 42 {
		t.Errorf("giver holds %d units after the failed hand-off, want 42", got)
	}
	if pred, _ := giver.Predecessor(); pred.ID != l.Nodes()[0].ID() {
		t.Errorf("giver adopted %s as predecessor, want %s", pred.ID.Short(), l.Nodes()[0].ID().Short())
	}
	if err := l.Leave(giver.ID()); err != nil {
		t.Fatal(err)
	}
	if got := ringUnits(l); got != 42 {
		t.Errorf("ring holds %d units after the giver left, want 42", got)
	}
}

// cutTransport is a PipeTransport whose link to one joiner breaks
// mid-hand-off: once armed, the first address dialed other than spare
// carries one frame, and then every write on that conn and every later
// dial to that address fails.
type cutTransport struct {
	*PipeTransport
	spare string

	mu     sync.Mutex
	armed  bool
	target string
	cuts   int
}

var errCut = errors.New("link cut")

func (c *cutTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case addr == c.target:
		c.cuts++
		return nil, errCut
	case c.armed && c.target == "" && addr != c.spare:
		c.target = addr
		conn, err := c.PipeTransport.Dial(addr, timeout)
		return &oneFrameConn{Conn: conn, cut: c}, err
	}
	return c.PipeTransport.Dial(addr, timeout)
}

// oneFrameConn lets one frame through, then fails every write.
type oneFrameConn struct {
	net.Conn
	cut   *cutTransport
	wrote bool
}

func (o *oneFrameConn) Write(p []byte) (int, error) {
	if o.wrote {
		o.cut.mu.Lock()
		o.cut.cuts++
		o.cut.mu.Unlock()
		return 0, errCut
	}
	o.wrote = true
	return o.Conn.Write(p)
}

// TestFailedJoinHandsBackAckedChunks injects a Sybil whose handshake
// fails after the giver's first TTransfer chunk was acked: the joiner
// held task units when its join failed, and they must come back to the
// host, not vanish with the joiner.
func TestFailedJoinHandsBackAckedChunks(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 0, 0)
	ct := &cutTransport{PipeTransport: l.tr}
	h, err := newHost(l.cfg, ct, l.nf, l, 0, StrategyNone, 3, "", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	giver := h.PrimaryNode()
	ct.spare = giver.Addr()
	// Five 60 KiB records need two TTransfer chunks; the first carries
	// every task with it.
	value := make([]byte, 60<<10)
	giver.mu.Lock()
	for i := range uint64(5) {
		giver.addTaskLocked(giver.ID().Add(ids.FromUint64(i+1)), 10)
	}
	giver.mu.Unlock()
	for i := range uint64(5) {
		if _, err := giver.st.Put(giver.ID().Add(ids.FromUint64(i+1)), value); err != nil {
			t.Fatal(err)
		}
	}
	ct.mu.Lock()
	ct.armed = true
	ct.mu.Unlock()

	if _, ok := h.injectSybil(giver.ID().Add(ids.PowerOfTwo(ids.Bits-2)), giver.Addr()); ok {
		t.Fatal("the Sybil joined across a cut link")
	}
	if ct.cuts == 0 {
		t.Fatal("the hand-off never reached the cut")
	}
	if got := giver.Stats().Served[wire.TTransfer]; got == 0 {
		t.Error("the failed joiner handed nothing back")
	}
	if got := h.Stats().Residual; got != 50 {
		t.Errorf("host holds %d units after the failed join, want 50", got)
	}
	if n := len(h.Nodes()); n != 1 {
		t.Errorf("host keeps %d identities, want 1", n)
	}
}

// TestJoinLeaveConservesUnitsUnderDrops joins and gracefully removes
// task-holding nodes on lockstep rings under the soak's fault plan, 2%
// of frames dropped and 1% duplicated: after every join, leave and
// round the live nodes hold exactly the units submitted.
func TestJoinLeaveConservesUnitsUnderDrops(t *testing.T) {
	for seed := range uint64(5) {
		l, err := NewLockstep(Config{}, faults.Plan{}, 8, keys.NewGenerator(23+seed).Next)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(5 + seed)
		c := l.Client()
		const want = 64 * 8
		for range 64 {
			if err := c.SubmitTask(ids.Random(rng), 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Faults().SetPlan(faults.Plan{Seed: seed, DropRate: 0.02, DupRate: 0.01}); err != nil {
			t.Fatal(err)
		}
		check := func(step int, what string) {
			t.Helper()
			if got := ringUnits(l); got != want {
				t.Fatalf("seed %d, step %d, after %s: ring holds %d units, want %d", seed, step, what, got, want)
			}
		}
		gen := keys.NewGenerator(31 + seed)
		for step := range 60 {
			if step%3 == 2 && len(l.Nodes()) > 4 {
				_ = l.Leave(l.Nodes()[rng.Intn(len(l.Nodes()))].ID())
				check(step, "leave")
			} else {
				_, _ = l.Join(gen.Next())
				check(step, "join")
			}
			l.Round()
			check(step, "round")
		}
		l.Close()
	}
}

// gateTransport is a PipeTransport whose dials to one address block
// until release closes, and then fail.
type gateTransport struct {
	*PipeTransport
	gated   string
	once    sync.Once
	dialing chan struct{} // closed when the first gated dial starts
	release chan struct{}
}

func (g *gateTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if addr != g.gated {
		return g.PipeTransport.Dial(addr, timeout)
	}
	g.once.Do(func() { close(g.dialing) })
	<-g.release
	return nil, errCut
}

// TestLeaveWaitsForJoinHandoffs starts a leave while a join hand-off
// to a dead joiner is still dialing it. The leave must wait for the
// failed push to put its units back before it snapshots, or they land
// in a node that has already counted itself out.
func TestLeaveWaitsForJoinHandoffs(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 0, 0)
	gt := &gateTransport{PipeTransport: l.tr, dialing: make(chan struct{}), release: make(chan struct{})}
	giver, err := NewNode(l.cfg, gt, nil, adversary.IDAtFraction(0.6), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(giver.Close)
	giver.Create()
	giver.mu.Lock()
	giver.addTaskLocked(adversary.IDAtFraction(0.3), 40) // in the joiner's arc
	giver.addTaskLocked(giver.ID(), 2)
	giver.mu.Unlock()
	dead, err := NewNode(l.cfg, l.tr, nil, adversary.IDAtFraction(0.4), "")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	gt.gated = dead.Addr()

	joined := make(chan struct{})
	go func() {
		defer close(joined)
		var reply wire.Msg
		giver.handleJoin(&wire.Msg{Type: wire.TJoin, From: dead.Ref()}, &reply)
	}()
	<-gt.dialing
	left := make(chan uint64)
	go func() {
		// Alone on the ring, the giver hands nothing on: the remainder
		// is everything its snapshot held.
		_, tasks, _ := giver.leaveRemainder()
		var units uint64
		for _, tk := range tasks {
			units += tk.Units
		}
		left <- units
	}()
	for !giver.isLeaving() {
		runtime.Gosched()
	}
	close(gt.release)
	if units := <-left; units != 42 {
		t.Errorf("the leave's snapshot held %d units, want 42", units)
	}
	<-joined
}

// TestRetriedJoinPushesNothingTwice sends a giver the same join twice,
// as a joiner whose first reply was lost does: the first pushes the
// joiner its arc, and the second finds the joiner already its
// predecessor and pushes nothing.
func TestRetriedJoinPushesNothingTwice(t *testing.T) {
	l, giver := giverRing(t)
	if _, err := giver.st.Put(adversary.IDAtFraction(0.5), []byte("outside")); err != nil {
		t.Fatal(err)
	}
	j, err := NewNode(l.cfg, l.tr, l.nf, adversary.IDAtFraction(0.4), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	for try := range 2 {
		var reply wire.Msg
		giver.handleJoin(&wire.Msg{Type: wire.TJoin, From: j.Ref()}, &reply)
		if reply.Type != wire.TJoinOK {
			t.Fatalf("join %d answered %v: %s", try, reply.Type, reply.Text)
		}
		if got, kept := j.TaskUnits(), giver.TaskUnits(); got != 40 || kept != 2 {
			t.Errorf("after join %d the joiner holds %d units and the giver %d, want 40 and 2", try, got, kept)
		}
		if n := j.KeyCount(); n != 0 {
			t.Errorf("after join %d the joiner holds %d keys from outside its arc", try, n)
		}
	}
}
