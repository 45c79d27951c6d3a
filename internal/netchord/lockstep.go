package netchord

import (
	"fmt"
	"slices"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
)

// Lockstep drives a ring of Nodes from one goroutine, one maintenance
// round at a time. Its nodes serve RPCs over one PipeTransport but run
// no maintenance loop: Round calls each live node's round function
// (the one its loop would call) in ring order, then steps each host
// (AddHost) as its loop would, strategy included. Every RPC is therefore
// caused by the driving goroutine, one at a time (a giver pushes a
// joiner its arc while the driver waits on the handshake), so the order
// in which frames meet the fault plan's decisions is fixed: the same
// seed, plan and calls give the same routes, counters and outcomes, run
// after run. cmd/chordnet and the chord-hops and resilience experiments run
// the shipped protocol this way.
//
// No wall-clock timer fires inside a run. The RPC deadline and the idle
// close of server connections are set far beyond any run, and lost
// frames cost no wall time (see pipe), so only retry backoff and client
// reroute pauses sleep, for nanoseconds.
//
// A Lockstep is not safe for concurrent use.
type Lockstep struct {
	cfg       Config
	tr        *PipeTransport
	nf        *NetFaults
	live      []*Node // ascending ID
	all       []*Node // every node ever started, for the counters
	dead      int
	hosts     []*Host // in index order
	collector *Collector
	// rounds counts maintenance rounds run on the whole ring.
	rounds int
}

// NewLockstep builds an n-node ring under cfg and fault plan, IDs drawn
// from next, and runs rounds until it converges, 4n+16 at most; n = 0
// builds an empty driver, for a ring of AddHost hosts. After
// each join the joiner's predecessor runs the maintenance round that
// links the joiner in, so a join costs what Chord's join protocol needs
// — a lookup, the handshake and two stabilizations — rather than a
// round of every node. The timing fields of cfg (TickEvery,
// RPCTimeoutTicks, IdleConnTicks) are the driver's own; the rest,
// Replicas included, are the caller's.
func NewLockstep(cfg Config, plan faults.Plan, n int, next func() ids.ID) (*Lockstep, error) {
	cfg.TickEvery = time.Nanosecond // backoff and reroute pauses all but vanish
	cfg.RPCTimeoutTicks = 1 << 50   // 13 days
	cfg.IdleConnTicks = 1 << 51
	cfg = cfg.WithDefaults()
	nf, err := NewNetFaults(plan, cfg.TickEvery)
	if err != nil {
		return nil, err
	}
	nf.stepped = true
	l := &Lockstep{cfg: cfg, tr: NewPipeTransport(), nf: nf}
	if l.collector, err = NewCollector(cfg, l.tr, "", nil); err != nil {
		return nil, err
	}
	if err := l.build(n, next); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// build creates the ring for NewLockstep.
func (l *Lockstep) build(n int, next func() ids.ID) error {
	if n == 0 {
		return nil
	}
	if _, err := l.start(next(), func(n *Node) error { n.Create(); return nil }); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		j, err := l.Join(next())
		if err != nil {
			return err
		}
		k, _ := l.search(j.ID())
		l.live[(k+len(l.live)-1)%len(l.live)].maintain()
	}
	if _, ok := l.Converge(4*n + 16); !ok {
		return fmt.Errorf("netchord: %d-node ring did not converge", n)
	}
	return nil
}

// Close shuts every host and live node down, then the collector.
func (l *Lockstep) Close() {
	for _, h := range l.hosts {
		h.Close()
	}
	for _, n := range l.live {
		n.Close()
	}
	l.hosts, l.live = nil, nil
	l.collector.Close()
}

// Faults returns the fault layer every node and client shares.
func (l *Lockstep) Faults() *NetFaults { return l.nf }

// Nodes returns the live nodes in ring order. The slice is the
// driver's; callers must not modify it.
func (l *Lockstep) Nodes() []*Node { return l.live }

// Dead returns how many nodes Kill and ChaosTick have crashed.
func (l *Lockstep) Dead() int { return l.dead }

// Rounds returns how many maintenance rounds the ring has run.
func (l *Lockstep) Rounds() int { return l.rounds }

// Collector returns the collector the hosts report to.
func (l *Lockstep) Collector() *Collector { return l.collector }

// RPC sums the RPC counters of every node the driver ever ran.
func (l *Lockstep) RPC() RPCStats {
	var s RPCStats
	for _, n := range l.all {
		p := n.pool.stats()
		s.Calls += p.Calls
		s.Retries += p.Retries
		s.Timeouts += p.Timeouts
		s.BackoffTicks += p.BackoffTicks
		s.Reconnects += p.Reconnects
		s.PartitionRefusals += p.PartitionRefusals
	}
	return s
}

// Join adds a node at id through the first live node. Like a joining
// deployment node it runs one stabilize round itself; Round spreads
// the news.
func (l *Lockstep) Join(id ids.ID) (*Node, error) {
	if len(l.live) == 0 {
		return nil, fmt.Errorf("netchord: no live node to join through")
	}
	via := l.live[0].Addr()
	return l.start(id, func(n *Node) error { return n.Join(via) })
}

// AddHost boots a host running strat (a strategy.ByName name) on seed's
// RNG stream for its index, as NewCluster does. Its primary joins
// through the first live node, or creates the ring. Every identity the
// host spawns joins the live set and leaves it when retired or churned
// away; Kill, Leave and ChaosTick do not tell the host.
func (l *Lockstep) AddHost(strat string, seed uint64) (*Host, error) {
	via := ""
	if len(l.live) > 0 {
		via = l.live[0].Addr()
	}
	h, err := newHost(l.cfg, l.tr, l.nf, l, len(l.hosts), strat, seed, via, l.collector.Addr())
	if err != nil {
		return nil, err
	}
	l.hosts = append(l.hosts, h)
	h.report() // registers the host, as Start does
	return h, nil
}

// run adds a node that has entered the ring, a host's included, to the
// live set (driver). The node has served RPCs since NewNode.
func (l *Lockstep) run(n *Node) {
	l.all = append(l.all, n)
	i, _ := l.search(n.ID())
	l.live = slices.Insert(l.live, i, n)
}

// drop takes a host's departed identity out of the live set (driver).
func (l *Lockstep) drop(n *Node) { _, _ = l.remove(n.ID()) }

// start opens a node at id, brings it onto the ring with enter and
// runs it. A node whose join failed leaves, which hands back whatever
// the giver pushed before the handshake failed.
func (l *Lockstep) start(id ids.ID, enter func(*Node) error) (*Node, error) {
	if _, found := l.search(id); found {
		return nil, fmt.Errorf("netchord: id %s already on the ring", id.Short())
	}
	n, err := NewNode(l.cfg, l.tr, l.nf, id, "")
	if err != nil {
		return nil, err
	}
	if err := enter(n); err != nil {
		_ = n.Leave()
		return nil, err
	}
	l.run(n)
	return n, nil
}

// search returns where id sits, or would sit, in the live set.
func (l *Lockstep) search(id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(l.live, id, func(m *Node, id ids.ID) int { return m.ID().Compare(id) })
}

// remove takes the live node id out of the ring set and returns it.
func (l *Lockstep) remove(id ids.ID) (*Node, error) {
	i, found := l.search(id)
	if !found {
		return nil, fmt.Errorf("netchord: no live node %s", id.Short())
	}
	n := l.live[i]
	l.live = slices.Delete(l.live, i, i+1)
	return n, nil
}

// Kill crash-stops the live node id: it vanishes without handing off
// its keys or tasks.
func (l *Lockstep) Kill(id ids.ID) error {
	n, err := l.remove(id)
	if err != nil {
		return err
	}
	n.Close()
	l.dead++
	return nil
}

// Leave departs the live node id gracefully (Node.Leave).
func (l *Lockstep) Leave(id ids.ID) error {
	n, err := l.remove(id)
	if err != nil {
		return err
	}
	return n.Leave()
}

// Round runs one maintenance round on every live node, in ring order,
// then the StabilizeEveryTicks host ticks a round lasts on the wall
// clock, each tick stepping every host in index order.
func (l *Lockstep) Round() {
	for _, n := range l.live {
		n.maintain()
	}
	for range StabilizeEveryTicks {
		for _, h := range l.hosts {
			h.step()
		}
	}
	l.rounds++
}

// Converged reports whether the live nodes' pointers agree with the
// sorted membership (see Cluster.Converged).
func (l *Lockstep) Converged() bool { return converged(l.live, l.cfg.Replicas) }

// Converge runs rounds until the ring converges or maxRounds have run,
// and reports the rounds run and whether it converged.
func (l *Lockstep) Converge(maxRounds int) (int, bool) {
	for r := 1; r <= maxRounds; r++ {
		l.Round()
		if l.Converged() {
			return r, true
		}
	}
	return maxRounds, false
}

// FixFingers repairs every finger of every live node, one lookup each,
// the way ids.Bits maintenance rounds would.
func (l *Lockstep) FixFingers() {
	for _, n := range l.live {
		for range ids.Bits {
			n.fixNextFinger()
		}
	}
}

// ChaosTick steps the fault clock one tick and crash-stops that tick's
// victims, drawn by the plan (crash rate, then correlated bursts) over
// the live nodes in ring order. At least one node survives. It returns
// the victims.
func (l *Lockstep) ChaosTick() []ids.ID {
	picked := l.nf.crashTick(len(l.live))
	victims := make([]ids.ID, len(picked))
	for k, i := range picked {
		victims[k] = l.live[i].ID()
	}
	for _, id := range victims {
		_ = l.Kill(id) // drawn from the live set: always present
	}
	return victims
}

// Client returns a client that enters the ring at the first live node
// and sends through that node's connection pool, so the fault plan and
// any partition apply to it as to the node. It is nil on an empty ring,
// and becomes unusable once that node dies.
func (l *Lockstep) Client() *Client {
	if len(l.live) == 0 {
		return nil
	}
	n := l.live[0]
	return newClient(n.pool, n.ref, 0)
}

// converged is the convergence oracle behind Cluster.Converged and
// Lockstep.Converged: nodes, sorted by ID, agree with their membership
// when each node's predecessor is the previous ID and its successor
// list opens with the next min(replicas-1, len-1) IDs clockwise.
func converged(nodes []*Node, replicas int) bool {
	if len(nodes) == 0 {
		return false
	}
	depth := min(replicas-1, len(nodes)-1)
	for i, n := range nodes {
		next := nodes[(i+1)%len(nodes)]
		prev := nodes[(i-1+len(nodes))%len(nodes)]
		if n.Successor().ID != next.ID() {
			return false
		}
		list := n.SuccessorList()
		for k := 1; k < depth; k++ {
			if k >= len(list) || list[k].ID != nodes[(i+1+k)%len(nodes)].ID() {
				return false
			}
		}
		pred, ok := n.Predecessor()
		if !ok || pred.ID != prev.ID() {
			return false
		}
	}
	return true
}
