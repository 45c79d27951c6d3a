// Package chord implements the Chord distributed hash table protocol
// (Stoica et al., SIGCOMM 2001) that the paper's simulation assumes as its
// substrate: finger-table routing, iterative lookups, the stabilization
// protocol, successor lists for failure tolerance, and the active
// key-replication scheme of the authors' ChordReduce system.
//
// The network is simulated in-process: remote procedure calls are direct
// method calls that increment message counters, and node failures are
// modeled by marking nodes dead so that calls to them fail the way a
// timeout would. Execution is single-threaded and deterministic; the
// packages layered on top (internal/chordreduce) drive maintenance rounds
// explicitly.
//
// This package exists to validate — with measured hop counts, repair
// rounds, and message totals — the assumptions the tick simulator
// (internal/sim) charges for joins, Sybil placements, and maintenance.
package chord

import (
	"errors"
	"fmt"
	"slices"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
)

// Errors surfaced by protocol operations.
var (
	ErrDead      = errors.New("chord: node is dead")
	ErrNoRoute   = errors.New("chord: lookup exceeded hop budget")
	ErrNotFound  = errors.New("chord: key not found")
	ErrDuplicate = errors.New("chord: node ID already present")
	ErrIsolated  = errors.New("chord: node has no live successor")
)

// Config tunes the protocol.
type Config struct {
	// SuccessorListLen is r in the Chord paper: the number of successors
	// each node tracks for failure tolerance. Default 8.
	SuccessorListLen int
	// Replicas is how many successors mirror each key (the paper's
	// "active and aggressive" backup assumption, §V). Default 3; a
	// negative value disables replication entirely, which is how the
	// fault experiments demonstrate that crash-stop failures lose keys
	// without it.
	Replicas int
	// MaxHops bounds a single lookup; lookups that exceed it return
	// ErrNoRoute. Default 3*160.
	MaxHops int
}

func (c Config) withDefaults() Config {
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.MaxHops == 0 {
		c.MaxHops = 3 * ids.Bits
	}
	return c
}

// Network is the in-process overlay: the node registry plus message
// accounting.
type Network struct {
	cfg   Config
	nodes map[ids.ID]*Node
	msgs  map[string]int

	// faults is the optional fault injector every RPC is threaded
	// through (see transport.go); tstats accumulates its activity and
	// tick is the overlay's logical clock.
	faults *faults.Injector
	tstats TransportStats
	tick   int

	// registry remembers every key ever stored via Put so the repair
	// instrumentation (repair.go) can audit what survived a failure.
	registry map[ids.ID]string
}

// NewNetwork returns an empty overlay.
func NewNetwork(cfg Config) *Network {
	return &Network{
		cfg:      cfg.withDefaults(),
		nodes:    make(map[ids.ID]*Node),
		msgs:     make(map[string]int),
		registry: make(map[ids.ID]string),
	}
}

// TotalMessages sums all message counts.
func (nw *Network) TotalMessages() int {
	t := 0
	for _, v := range nw.msgs {
		t += v
	}
	return t
}

func (nw *Network) charge(kind string) { nw.msgs[kind]++ }

// Node returns the node with the given ID, alive or dead, or nil.
func (nw *Network) Node(id ids.ID) *Node { return nw.nodes[id] }

// AliveIDs returns the IDs of live nodes in ascending order.
func (nw *Network) AliveIDs() []ids.ID {
	out := make([]ids.ID, 0, len(nw.nodes))
	for id, n := range nw.nodes {
		if n.alive {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// sortIDs sorts xs into ascending ring order.
func sortIDs(xs []ids.ID) { slices.SortFunc(xs, ids.ID.Compare) }

// Create bootstraps the overlay with its first node.
func (nw *Network) Create(id ids.ID) (*Node, error) {
	if _, ok := nw.nodes[id]; ok {
		return nil, ErrDuplicate
	}
	n := newNode(nw, id)
	n.succList = []ids.ID{id}
	n.pred = id
	n.hasPred = true
	nw.nodes[id] = n
	return n, nil
}

// Join adds a node at id using bootstrap to find its place, transfers the
// keys it is now responsible for, and links it into the ring. The caller
// should drive a few StabilizeAll rounds afterwards to disseminate the
// change, exactly as a deployment's periodic timers would.
func (nw *Network) Join(id ids.ID, bootstrap *Node) (*Node, error) {
	if _, ok := nw.nodes[id]; ok {
		return nil, ErrDuplicate
	}
	if !bootstrap.alive {
		return nil, ErrDead
	}
	succ, _, err := bootstrap.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("chord: join lookup: %w", err)
	}
	// The join handshake is one RPC to the successor; under faults it can
	// time out, leaving the joiner outside the ring to try again later.
	if err := nw.send("join", id, succ.id); err != nil {
		return nil, fmt.Errorf("chord: join handshake: %w", err)
	}
	n := newNode(nw, id)
	nw.nodes[id] = n
	n.succList = append([]ids.ID{succ.id}, trim(succ.succList, nw.cfg.SuccessorListLen-1)...)
	// Acquire the keys in (pred(succ), id] immediately (§V: a joining
	// node "acquires all the work it is responsible for").
	succ.transferTo(n)
	n.stabilize()
	return n, nil
}

// Kill marks a node dead. Its state stays around (a crashed machine does
// not clean up after itself); the protocol must route and repair around it.
func (nw *Network) Kill(id ids.ID) {
	if n, ok := nw.nodes[id]; ok {
		n.alive = false
	}
}

// Leave removes a node gracefully: it pushes its keys to its successor
// before departing.
func (nw *Network) Leave(id ids.ID) error {
	n, ok := nw.nodes[id]
	if !ok || !n.alive {
		return ErrDead
	}
	succ := n.firstLiveSuccessor()
	if succ == nil {
		// Last node: nowhere to push keys; just die.
		n.alive = false
		delete(nw.nodes, id)
		return nil
	}
	// Push keys in sorted order so per-message fault decisions are
	// deterministic; a transfer lost in transit means the key departs
	// with the leaver (visible to ProbeKeys unless a replica survives).
	for _, k := range sortedDataKeys(n.data) {
		if err := nw.send("transfer", n.id, succ.id); err != nil {
			continue
		}
		succ.data[k] = n.data[k]
	}
	n.alive = false
	delete(nw.nodes, id)
	return nil
}

// StabilizeAll runs one maintenance round on every live node: stabilize,
// successor-list refresh, one finger fixed, and replica repair. Returns
// the number of live nodes touched.
func (nw *Network) StabilizeAll() int {
	count := 0
	for _, id := range nw.AliveIDs() {
		n := nw.nodes[id]
		n.stabilize()
		n.fixNextFinger()
		n.repairReplicas()
		count++
	}
	return count
}

// StabilizeUntilConverged runs maintenance rounds until the ring's
// successor pointers match the sorted live IDs or maxRounds passes.
// It reports the number of rounds used and whether the ring converged.
func (nw *Network) StabilizeUntilConverged(maxRounds int) (int, bool) {
	for r := 1; r <= maxRounds; r++ {
		nw.StabilizeAll()
		if nw.VerifyRing() == nil {
			return r, true
		}
	}
	return maxRounds, false
}

// VerifyRing checks that every live node's first live successor is the
// next live ID on the ring. It returns nil when the ring is perfect.
func (nw *Network) VerifyRing() error {
	alive := nw.AliveIDs()
	if len(alive) == 0 {
		return nil
	}
	for i, id := range alive {
		want := alive[(i+1)%len(alive)]
		n := nw.nodes[id]
		succ := n.firstLiveSuccessor()
		if succ == nil {
			return fmt.Errorf("chord: node %s isolated", id.Short())
		}
		if succ.id != want {
			return fmt.Errorf("chord: node %s successor %s, want %s",
				id.Short(), succ.id.Short(), want.Short())
		}
	}
	return nil
}

// FixAllFingers fully rebuilds every live node's finger table; tests use
// it to measure best-case lookup hops.
func (nw *Network) FixAllFingers() {
	for _, id := range nw.AliveIDs() {
		n := nw.nodes[id]
		for i := 0; i < ids.Bits; i++ {
			n.fixFinger(i)
		}
	}
}

func trim(xs []ids.ID, n int) []ids.ID {
	if len(xs) > n {
		xs = xs[:n]
	}
	return append([]ids.ID(nil), xs...)
}
