package netchord

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chordbalance/internal/adversary"
	"chordbalance/internal/ids"
	"chordbalance/internal/store"
	"chordbalance/internal/wire"
)

// maxSeenTokens bounds the idempotency-token memory per node.
const maxSeenTokens = 4096

// maxLostPeers bounds the graveyard of pruned peers kept for ring
// re-merge probing after a partition heals.
const maxLostPeers = 16

// tokenCounter feeds newToken; process-global so tokens stay unique
// even across a host's churning identities.
var tokenCounter atomic.Uint64

// TError codes carried in TError.A.
const (
	// CodeBadRequest means the request was malformed for its type.
	CodeBadRequest = 1
	// CodeNoRoute means the callee could not route the request.
	CodeNoRoute = 2
	// CodeShutdown means the callee is closing.
	CodeShutdown = 3
	// CodeUnavailable means the callee could not meet the durability
	// contract right now (not enough reachable replicas); the caller
	// should re-resolve the owner and retry.
	CodeUnavailable = 4
	// CodeNotOwner means the key lies outside the callee's arc
	// (pred, self]: the callee is alive but does not own the key, so the
	// caller should re-resolve the owner and send again.
	CodeNotOwner = 5
)

// putVersionAttempts bounds the owner's version-bump retry loop: when a
// replica acknowledges a TReplicate with a higher current version than
// the one pushed (a stale higher history is shadowing the fresh write),
// the owner re-appends the value above that version and pushes again.
const putVersionAttempts = 4

// Node is one networked Chord participant: a wire-protocol server on
// its own listener, a client connection pool, and a background
// maintenance loop (stabilize, notify, successor-list refresh, round-
// robin finger repair) paced by Config.TickEvery.
//
// A Node is safe for concurrent use: the server handles each inbound
// connection on its own goroutine, and all protocol state (predecessor,
// successor list, fingers, tasks) sits behind one mutex; key/value data
// lives in the node's store.Store, which does its own locking. RPC
// handlers never block on the network while holding the mutex, so
// request cycles between nodes cannot deadlock. The TPut handler does
// block on its replica round trips — without holding any lock — because
// the durability contract is exactly "acknowledged means replicated",
// and so does the TJoin handler on its push, because a joiner is
// admitted only once it holds its arc.
type Node struct {
	cfg  Config
	tr   Transport
	nf   *NetFaults
	host *Host // nil for standalone nodes
	ref  wire.NodeRef

	// st is the node's durable storage engine: an append-only segment
	// log (or its memory-backed twin when Config.DataDir is empty) with
	// last-writer-wins versioning and Merkle arc digests.
	st *store.Store

	pool *peerPool
	srv  server

	mu         sync.Mutex
	pred       wire.NodeRef
	hasPred    bool
	succ       []wire.NodeRef // nearest first; empty only before bootstrap
	fingers    []wire.NodeRef // fingers[i] caches successor(id + 2^i)
	nextFinger int
	tasks      map[ids.ID]uint64
	taskUnits  uint64
	everTasked bool

	// At-least-once defense: the RPC layer retries after lost replies,
	// so task-bearing messages must be exactly-once at the application
	// layer. seenTokens remembers recently applied TTask/TTransfer
	// idempotency tokens (FIFO-evicted); a join's hand-off travels as
	// TTransfer chunks, so it is covered too.
	seenTokens map[uint64]struct{}
	tokenOrder []uint64

	// leaving is set the moment Leave begins; from then on task-bearing
	// requests and joins are refused with CodeShutdown, so no work can
	// slip into a node that has already counted itself out (the sender
	// re-routes to the successor instead).
	leaving bool
	// handoffs counts join hand-offs in flight. Leave waits for them
	// before its snapshot, so units a failed push puts back leave too.
	handoffs sync.WaitGroup

	// lost is the graveyard: peers pruned as unreachable (dead successor
	// heads, unresponsive predecessors). probeLost revisits them because
	// after a partition the two sides each converge to a self-consistent
	// ring, and Chord stabilization alone can never merge two such rings
	// — every pointer on each side is internally valid. One revived
	// graveyard entry is enough to re-link them.
	lost     []wire.NodeRef
	lostNext int

	// round counts maintenance rounds run; only maintain touches it.
	round int
	// maint is the memory maintenance reuses from round to round, so a
	// steady ring's rounds allocate nothing. Only the one goroutine that
	// runs the node's rounds touches it: its maintenance loop or the
	// Lockstep stepping it, and Join, which runs before Start. It needs
	// no lock, and n.mu is never held across the RPCs that use it.
	maint maintScratch

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup

	served      [wire.TypeCount]atomic.Int64
	stabilizes  atomic.Int64
	replicaErrs atomic.Int64
	acked       atomic.Int64
	antiRounds  atomic.Int64
	antiPushed  atomic.Int64
	antiPulled  atomic.Int64
	antiBytes   atomic.Int64
	evictsSent  atomic.Int64
}

// NewNode opens a listener on addr (or an auto-assigned one when addr
// is empty) and returns a node with identity id that answers RPCs but
// runs no maintenance. Call Create or Join, then Start, to bring it
// onto a ring; the joiner must already answer, since the giver pushes
// its arc during the handshake. nf may be nil (no faults).
//
// When cfg.DataDir is set the node opens (or reopens) its segment log
// at DataDir/node-<id>: a node restarted under the same identity and
// data directory replays its log and rejoins with its pre-crash keys.
func NewNode(cfg Config, tr Transport, nf *NetFaults, id ids.ID, addr string) (*Node, error) {
	cfg = cfg.WithDefaults()
	dir := ""
	if cfg.DataDir != "" {
		dir = filepath.Join(cfg.DataDir, "node-"+id.String())
	}
	st, err := store.Open(dir, store.Options{SyncWrites: !cfg.NoSync})
	if err != nil {
		return nil, fmt.Errorf("netchord: opening store: %w", err)
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		tr:         tr,
		nf:         nf,
		ref:        wire.NodeRef{ID: id, Addr: ln.Addr().String()},
		st:         st,
		srv:        server{ln: ln, conns: make(map[net.Conn]struct{})},
		fingers:    make([]wire.NodeRef, ids.Bits),
		tasks:      make(map[ids.ID]uint64),
		seenTokens: make(map[uint64]struct{}),
		closed:     make(chan struct{}),
	}
	n.pool = newPeerPool(tr, cfg, nf, func() ids.ID { return id })
	// Replies pass through the fault layer too (remote identity is
	// unknown server-side, so only drop/dup/delay apply; the client side
	// already enforces the partition).
	n.srv.wg.Add(1)
	go n.srv.acceptLoop(cfg, nf, id, n.handler)
	return n, nil
}

// Ref returns the node's identity and listen address.
func (n *Node) Ref() wire.NodeRef { return n.ref }

// ID returns the node's ring identifier.
func (n *Node) ID() ids.ID { return n.ref.ID }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ref.Addr }

// Create bootstraps a one-node ring: the node is its own successor and
// predecessor, exactly as in the Chord paper's create().
func (n *Node) Create() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.succ = []wire.NodeRef{n.ref}
	n.pred = n.ref
	n.hasPred = true
}

// Join brings the node onto the ring reachable through via: resolve the
// node's successor with an iterative lookup starting at via, then run
// the join handshake, during which the successor pushes the records and
// task units the node is now responsible for. The background loops
// (started by Start) disseminate the change from there.
//
// A failed handshake may follow chunks the successor already pushed.
// The node keeps them, with that successor as its successor, so a Leave
// hands them back.
func (n *Node) Join(via string) error {
	boot := wire.NodeRef{Addr: via}
	succ, _, err := lookupFrom(n.pool, n, boot, n.ref.ID, nil, nil)
	if err != nil {
		return fmt.Errorf("netchord: join lookup via %s: %w", via, err)
	}
	if succ.ID == n.ref.ID && succ.Addr != n.ref.Addr {
		return fmt.Errorf("netchord: join: id %s already on the ring", n.ref.ID.Short())
	}
	// Admission cost: with puzzles on, every identity — honest joiner,
	// strategy-minted Sybil, or attacker — pays the same work here.
	nonce := adversary.SolvePuzzle(n.ref.ID, n.cfg.PuzzleBits)
	n.mu.Lock()
	n.succ = []wire.NodeRef{succ}
	n.mu.Unlock()
	sc := &n.maint
	join := sc.request(wire.TJoin)
	join.From, join.A = n.ref, nonce
	if err := n.pool.call(succ, join, &sc.reply); err != nil {
		return fmt.Errorf("netchord: join handshake: %w", err)
	}
	sc.refs = append(append(sc.refs[:0], succ), sc.reply.List...)
	n.mu.Lock()
	n.adoptSuccLocked(sc.refs)
	n.mu.Unlock()
	// One eager stabilize round links us in without waiting a tick.
	n.stabilizeOnce()
	return nil
}

// Start launches the background maintenance loop, one round (see
// maintain) every StabilizeEveryTicks ticks; the node has answered RPCs
// since NewNode. It panics if the node is already closed.
func (n *Node) Start() {
	select {
	case <-n.closed:
		panic("netchord: Start after Close")
	default:
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		every(n.cfg.Ticks(StabilizeEveryTicks), n.closed, n.maintain)
	}()
}

// Close shuts the node down: listener, inbound connections, pooled
// client connections, background loops, and the store. It does not hand
// keys off (that is Leave); Close models a crash-stop or process exit,
// so the segment log directory is kept — a node restarted under the
// same identity and DataDir replays it.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.pool.close()
	})
	n.srv.close()
	n.wg.Wait()
	_ = n.st.Close()
}

// Leave departs gracefully: mark the node as leaving (so no new work
// can arrive after the snapshot), wait for any join hand-off in flight,
// move every key and task unit to the first reachable successor, then
// Close. The snapshot is a move, not a copy — once taken, the units
// exist only in the outbound transfer, so they can be consumed locally
// xor handed off, never both.
func (n *Node) Leave() error {
	_, _, err := n.leaveRemainder()
	return err
}

// leaveRemainder is Leave returning whatever could not be delivered to
// any successor. A churning host (leave + rejoin) re-owns the leftovers
// under its next identity instead of dropping them, which is what keeps
// work conserved even when every transfer target is itself mid-leave.
// On return the node's store is destroyed: ownership of every record
// has moved into the transfer (or the returned remainder), so keeping
// the log would only resurrect stale replicas on an identity reuse.
func (n *Node) leaveRemainder() ([]wire.Rec, []wire.Task, error) {
	n.mu.Lock()
	n.leaving = true
	n.mu.Unlock()
	n.handoffs.Wait()
	n.mu.Lock()
	tasks := make([]wire.Task, 0, len(n.tasks))
	for _, k := range sortedTaskKeys(n.tasks) {
		tasks = append(tasks, wire.Task{Key: k, Units: n.tasks[k]})
	}
	n.tasks = make(map[ids.ID]uint64)
	n.taskUnits = 0
	succs := append([]wire.NodeRef(nil), n.succ...)
	n.mu.Unlock()
	// The leaving flag is set, so no new writes can land after this
	// snapshot: the store's contents move with us, versions intact, and
	// the receiver merges them last-writer-wins.
	arc, err := n.st.ArcRecs(ids.Zero, ids.Zero, 1<<30)
	if err != nil {
		n.Close()
		return nil, tasks, err
	}
	recs := wireRecs(arc)

	for _, s := range succs {
		if s.ID == n.ref.ID {
			continue
		}
		if len(recs) == 0 && len(tasks) == 0 {
			break
		}
		// Chunk the handoff under the wire caps; successfully delivered
		// chunks are not re-sent when the next successor is tried.
		if recs, tasks, err = n.transferTo(s, recs, tasks); err == nil {
			break
		}
	}
	n.Close()
	_ = n.st.Destroy()
	return recs, tasks, err
}

// transferTo pushes recs and tasks to ref in wire-sized chunks, each
// chunk carrying a fresh idempotency token so retried chunks are never
// double-applied. It returns whatever was not acknowledged, so a caller
// falling back to another successor resumes instead of restarting.
func (n *Node) transferTo(ref wire.NodeRef, recs []wire.Rec, tasks []wire.Task) ([]wire.Rec, []wire.Task, error) {
	for len(recs) > 0 || len(tasks) > 0 {
		m := &wire.Msg{Type: wire.TTransfer, A: n.newToken()}
		var restRecs []wire.Rec
		m.Recs, restRecs = splitRecChunk(recs)
		var restTasks []wire.Task
		if len(tasks) > wire.MaxTasks {
			m.Tasks, restTasks = tasks[:wire.MaxTasks], tasks[wire.MaxTasks:]
		} else {
			m.Tasks, restTasks = tasks, nil
		}
		if err := n.pool.call(ref, m, nil); err != nil {
			return recs, tasks, err
		}
		recs, tasks = restRecs, restTasks
	}
	return nil, nil, nil
}

// --- accessors -------------------------------------------------------

// Successor returns the working successor (self on a one-node ring).
func (n *Node) Successor() wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.succ) == 0 {
		return n.ref
	}
	return n.succ[0]
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]wire.NodeRef(nil), n.succ...)
}

// Predecessor returns the predecessor pointer and whether it is set.
func (n *Node) Predecessor() (wire.NodeRef, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred, n.hasPred
}

// KeyCount returns how many keys (primary + replica) the node stores.
func (n *Node) KeyCount() int { return n.st.Len() }

// Store returns the node's storage engine (for stats and tests; the
// protocol paths go through the node's own methods).
func (n *Node) Store() *store.Store { return n.st }

// TaskUnits returns the node's residual work, in units.
func (n *Node) TaskUnits() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.taskUnits
}

// NodeStats snapshots one node's protocol activity: requests served by
// type, maintenance counters, and the RPC pool's retry/timeout
// accounting.
type NodeStats struct {
	// Served counts requests handled, indexed by wire.Type.
	Served [wire.TypeCount]int64
	// Stabilizes counts stabilization rounds run.
	Stabilizes int64
	// ReplicaErrs counts failed replica pushes (repaired later).
	ReplicaErrs int64
	// Acked counts durably acknowledged writes this node owned.
	Acked int64
	// AntiEntropyRounds counts per-replica anti-entropy syncs run;
	// AntiEntropyPushed and AntiEntropyPulled count records repaired in
	// each direction; AntiEntropyBytes counts value bytes moved.
	AntiEntropyRounds, AntiEntropyPushed, AntiEntropyPulled, AntiEntropyBytes int64
	// EvictsSent counts density-scan eviction notices this node sent;
	// notices received are Served[wire.TEvict].
	EvictsSent int64
	// Store is the storage engine's counters.
	Store store.Stats
	// RPC is the client pool's counters.
	RPC RPCStats
}

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats {
	s := NodeStats{
		Stabilizes:        n.stabilizes.Load(),
		ReplicaErrs:       n.replicaErrs.Load(),
		Acked:             n.acked.Load(),
		AntiEntropyRounds: n.antiRounds.Load(),
		AntiEntropyPushed: n.antiPushed.Load(),
		AntiEntropyPulled: n.antiPulled.Load(),
		AntiEntropyBytes:  n.antiBytes.Load(),
		EvictsSent:        n.evictsSent.Load(),
		Store:             n.st.Stats(),
		RPC:               n.pool.stats(),
	}
	for i := range s.Served {
		s.Served[i] = n.served[i].Load()
	}
	return s
}

// newToken returns a nonzero idempotency token, unique within the
// process and salted with this node's identity so tokens from distinct
// senders cannot collide in a receiver's dedup window.
func (n *Node) newToken() uint64 {
	tok := binary.BigEndian.Uint64(n.ref.ID[:8]) ^ (tokenCounter.Add(1) << 20)
	if tok == 0 {
		tok = 1
	}
	return tok
}

// applyTokenLocked records tok and reports whether the carrying message
// should be applied (false = duplicate of an already-applied transfer).
// Token 0 always applies. Callers hold n.mu.
func (n *Node) applyTokenLocked(tok uint64) bool {
	if tok == 0 {
		return true
	}
	if _, dup := n.seenTokens[tok]; dup {
		return false
	}
	n.seenTokens[tok] = struct{}{}
	n.tokenOrder = append(n.tokenOrder, tok)
	if len(n.tokenOrder) > maxSeenTokens {
		delete(n.seenTokens, n.tokenOrder[0])
		n.tokenOrder = n.tokenOrder[1:]
	}
	return true
}

// addTaskLocked merges units of work under key; callers hold n.mu.
func (n *Node) addTaskLocked(key ids.ID, units uint64) {
	if units == 0 {
		return
	}
	n.tasks[key] += units
	n.taskUnits += units
	n.everTasked = true
}

// consume drains up to budget task units in ascending key order and
// returns how many were consumed.
func (n *Node) consume(budget uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if budget == 0 || n.taskUnits == 0 {
		return 0
	}
	var done uint64
	for _, k := range sortedTaskKeys(n.tasks) {
		if budget == 0 {
			break
		}
		take := n.tasks[k]
		if take > budget {
			take = budget
		}
		n.tasks[k] -= take
		if n.tasks[k] == 0 {
			delete(n.tasks, k)
		}
		budget -= take
		done += take
	}
	n.taskUnits -= done
	return done
}

// --- routing ---------------------------------------------------------

// Lookup resolves the node responsible for key, starting at this node,
// returning its ref and the number of routing round trips taken.
func (n *Node) Lookup(key ids.ID) (wire.NodeRef, int, error) {
	return lookupFrom(n.pool, n, n.ref, key, nil, nil)
}

// LookupTrace is Lookup returning the route as well: every node the
// lookup visited, this node first, so len(path)-1 is the hop count.
func (n *Node) LookupTrace(key ids.ID) (owner wire.NodeRef, path []wire.NodeRef, err error) {
	owner, _, err = lookupFrom(n.pool, n, n.ref, key, &path, nil)
	return owner, path, err
}

// lookupFrom is the one iterative lookup, shared by nodes and clients.
// Starting at start, each step is one TFindSuccessor round trip through
// pool; the answering node also returns its successor list as fallback
// candidates, so a next hop that died since being cached is routed
// around by stepping to the closest fallback — the successor-list walk
// that makes Chord lookups survive stale fingers. When self is non-nil,
// a step that lands on self is answered locally by routeStep instead
// of a round trip to itself. When path is non-nil every node the
// lookup visits is appended to it. Every hop reuses sc's request,
// reply and lists; a nil sc gets a fresh scratch for this lookup.
func lookupFrom(pool *peerPool, self *Node, start wire.NodeRef, key ids.ID, path *[]wire.NodeRef, sc *scratch) (wire.NodeRef, int, error) {
	if sc == nil {
		sc = new(scratch)
	}
	cur := start
	var fallbacks []wire.NodeRef
	hops := 0
	for hops <= maxHops {
		if path != nil {
			*path = append(*path, cur)
		}
		var done bool
		var next wire.NodeRef
		var list []wire.NodeRef
		var err error
		if self != nil && cur.Addr == self.ref.Addr {
			done, next, sc.refs = self.routeStep(key, sc.refs[:0])
			list = sc.refs
		} else {
			req := sc.request(wire.TFindSuccessor)
			req.Key, req.A = key, uint64(hops)
			err = pool.call(cur, req, &sc.reply)
			if err == nil {
				done, next, list = sc.reply.Flag, sc.reply.Node, sc.reply.List
			}
		}
		if err != nil {
			if len(fallbacks) == 0 {
				return wire.NodeRef{}, hops, err
			}
			cur, fallbacks = fallbacks[0], fallbacks[1:]
			hops++
			continue
		}
		if done {
			return next, hops, nil
		}
		// Keep the answerer's successor list (minus the chosen hop) as
		// fallbacks in case next is unreachable. They are copied out of
		// list, which is the reply's, before the next hop reads into it.
		fallbacks = sc.more[:0]
		for _, r := range list {
			if r.ID != next.ID && r.Addr != "" {
				fallbacks = append(fallbacks, r)
			}
		}
		sc.more = fallbacks
		cur = next
		hops++
	}
	return wire.NodeRef{}, hops, ErrNoRoute
}

// routeStep answers one routing step locally: done=true when the
// node's immediate successor owns key; otherwise the closest preceding
// candidate plus the successor list, appended to dst, as fallbacks. The
// list it returns is dst, extended or not.
func (n *Node) routeStep(key ids.ID, dst []wire.NodeRef) (done bool, next wire.NodeRef, list []wire.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	succ := n.ref
	if len(n.succ) > 0 {
		succ = n.succ[0]
	}
	if succ.ID == n.ref.ID || ids.BetweenRightIncl(key, n.ref.ID, succ.ID) {
		return true, succ, dst
	}
	next = n.closestPrecedingLocked(key)
	if next.ID == n.ref.ID {
		next = succ
	}
	return false, next, append(dst, n.succ...)
}

// owns reports whether key lies in the node's arc (pred, self]. A node
// with no predecessor, or alone on the ring, cannot tell a foreign key
// from its own and accepts every key.
func (n *Node) owns(key ids.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.hasPred || n.pred.ID == n.ref.ID {
		return true
	}
	return ids.BetweenRightIncl(key, n.pred.ID, n.ref.ID)
}

// closestPrecedingLocked scans fingers farthest-first, then the
// successor list, for the candidate most closely preceding key;
// callers hold n.mu.
func (n *Node) closestPrecedingLocked(key ids.ID) wire.NodeRef {
	for i := ids.Bits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f.Addr == "" || f.ID == n.ref.ID {
			continue
		}
		if ids.Between(f.ID, n.ref.ID, key) {
			return f
		}
	}
	best := n.ref
	for _, s := range n.succ {
		if ids.Between(s.ID, n.ref.ID, key) {
			best = s // nearest-first: the last match is closest to key
		}
	}
	return best
}

// Ping round-trips a TPing to ref.
func (n *Node) Ping(ref wire.NodeRef) error {
	return n.pool.call(ref, &wire.Msg{Type: wire.TPing}, nil)
}

// putDurable runs the owner's write path: append (and fsync) locally,
// push the record to Replicas-1 distinct successors, and acknowledge
// only once every required copy has confirmed durability. A replica
// whose TAck carries a higher current version than the one pushed is
// shadowing the fresh write with older high-versioned history (a stale
// log reopened under a reused identity, say); the owner then re-appends
// the value above that version and pushes again, so an acknowledged
// write is never silently lost to version arithmetic.
func (n *Node) putDurable(key ids.ID, value []byte) (uint64, error) {
	n.mu.Lock()
	leaving := n.leaving
	n.mu.Unlock()
	if leaving {
		return 0, fmt.Errorf("%w: node is leaving", ErrClosed)
	}
	minVer := uint64(0)
	var ver uint64
	for attempt := 0; attempt < putVersionAttempts; attempt++ {
		var err error
		ver, err = n.st.PutAtLeast(key, minVer, value)
		if err != nil {
			return 0, err
		}
		maxPeer, err := n.pushReplicas(key, ver, value)
		if err != nil {
			return 0, err
		}
		if maxPeer <= ver {
			n.acked.Add(1)
			if n.host != nil {
				n.host.stAcked.Add(1)
			}
			return ver, nil
		}
		minVer = maxPeer + 1
	}
	return 0, fmt.Errorf("netchord: put %s: version chase exceeded %d attempts", key.Short(), putVersionAttempts)
}

// pushReplicas pushes one record to the first Replicas-1 distinct
// successors, walking further down the list when a push fails so the
// quorum survives individual dead successors. It returns the highest
// current version any replica reported, and an error when fewer than
// the required number of replicas acknowledged. One request and one
// reply serve every replica, and the successor snapshot fits a stack
// buffer at the default list length, so a put allocates nothing here.
func (n *Node) pushReplicas(key ids.ID, ver uint64, value []byte) (uint64, error) {
	var buf [8]wire.NodeRef
	n.mu.Lock()
	succs := append(buf[:0], n.succ...)
	n.mu.Unlock()
	need := n.cfg.Replicas - 1
	distinct := 0
	for _, s := range succs {
		if s.ID != n.ref.ID {
			distinct++
		}
	}
	if need > distinct {
		// A short ring cannot hold more copies than it has nodes; the
		// durability contract degrades to what membership allows.
		need = distinct
	}
	if need <= 0 {
		return 0, nil
	}
	rec := [1]wire.Rec{{Key: key, Ver: ver, Value: value}}
	req := wire.Msg{Type: wire.TReplicate, Recs: rec[:]}
	var reply wire.Msg
	acked := 0
	var maxPeer uint64
	for _, s := range succs {
		if acked >= need {
			break
		}
		if s.ID == n.ref.ID {
			continue
		}
		if err := n.pool.call(s, &req, &reply); err != nil {
			n.replicaErrs.Add(1)
			continue
		}
		if reply.A > maxPeer {
			maxPeer = reply.A
		}
		acked++
	}
	if acked < need {
		return maxPeer, fmt.Errorf("netchord: put %s: %d/%d replicas acknowledged", key.Short(), acked, need)
	}
	return maxPeer, nil
}

// --- maintenance -----------------------------------------------------

// scratch is the memory a caller reuses from RPC to RPC: one request,
// one reply and two list buffers. A reply read into again reuses the
// addresses and values earlier replies left (wire.Msg), so a caller
// that keeps its scratch makes its steady calls without allocating. A
// scratch serves one goroutine at a time.
type scratch struct {
	req, reply wire.Msg
	// refs and more are list buffers: a candidate successor list and
	// its deduplicated form, or a lookup's local step and its fallbacks.
	refs, more []wire.NodeRef
}

// request returns the scratch request, reset to a bare message of type
// t for the caller to fill in.
func (s *scratch) request(t wire.Type) *wire.Msg {
	s.req = wire.Msg{Type: t}
	return &s.req
}

// maintScratch is a node's maintenance scratch (Node.maint).
type maintScratch struct {
	scratch
	// lookup is the finger and graveyard lookups' own scratch: their
	// answers come from all over the ring, and read into the
	// stabilization reply they would displace the addresses it keeps.
	lookup scratch
	// ring, gaps and flagged are the density scan's ID, gap and flag
	// buffers; its view of the ring is refs.
	ring    []ids.ID
	gaps    []float64
	flagged []bool
}

// every calls fn every d until stop closes. Ticks that pass while fn
// runs are dropped, not queued.
func every(d time.Duration, stop <-chan struct{}, fn func()) {
	ticker := time.NewTicker(d)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			fn()
		}
	}
}

// maintain runs one maintenance round: one stabilize round (successor
// verification, notify, successor-list refresh), a predecessor check
// and one finger fixed, exactly the per-round work of the simulator's
// StabilizeAll but on live connections. Every antiEntropyEveryTicks
// ticks' worth of rounds it also runs one Merkle anti-entropy pass
// against its replicas and offers the store a compaction opportunity;
// with DensityThreshold set, every densityEveryTicks ticks' worth it
// also runs one local density scan (docs/ADVERSARY.md). The round ends
// with a graveyard probe. Exactly one caller drives a node's rounds:
// its maintenance loop, or a Lockstep driver.
func (n *Node) maintain() {
	n.stabilizeOnce()
	n.checkPredecessor()
	n.fixNextFinger()
	n.round++
	if n.round%(antiEntropyEveryTicks/StabilizeEveryTicks) == 0 {
		n.antiEntropyOnce()
		if _, err := n.st.MaybeCompact(); err != nil {
			n.replicaErrs.Add(1)
		}
	}
	if n.cfg.DensityThreshold > 0 && n.round%(densityEveryTicks/StabilizeEveryTicks) == 0 {
		n.densityScanOnce()
	}
	n.probeLost()
}

// densityScanOnce runs the per-arc ID-density defense over the node's
// local view — itself plus its successor list, which IS ring order
// starting at the node. Unlike the simulator's global scan the live
// rule has no ring order array, so the uniform expectation comes from
// adversary.EstimateRingSize over the same view, and every identity
// inside a window at least DensityThreshold times denser than that
// expectation is sent an advisory wire.TEvict (single cheap attempt, no
// retries — the next scan re-fires if the cluster is still there). The
// node never evicts itself: if it sits inside a flagged cluster its
// honest neighbors' scans will say so.
//
// The scan waits for a full successor list. A list still filling after
// a join can end in wrap-around entries left from a smaller ring,
// which squeeze the gaps the size estimate rests on and flag honest
// nodes.
func (n *Node) densityScanOnce() {
	const w = densityWindow
	sc := &n.maint
	n.mu.Lock()
	if len(n.succ) < n.cfg.SuccessorListLen {
		n.mu.Unlock()
		return
	}
	sc.refs = append(append(sc.refs[:0], n.ref), n.succ...)
	n.mu.Unlock()
	view := sc.refs
	// The estimate needs an honest majority of gaps outside any one
	// window; with fewer entries than that the view is all window and
	// there is no uniform remainder to compare against.
	if len(view) < w+2 {
		return
	}
	ringIDs := sc.ring[:0]
	for _, r := range view {
		ringIDs = append(ringIDs, r.ID)
	}
	sc.ring = ringIDs
	sc.gaps = slices.Grow(sc.gaps[:0], len(view))
	est := adversary.EstimateRingSize(ringIDs, sc.gaps)
	flagged := slices.Grow(sc.flagged[:0], len(view))[:len(view)]
	clear(flagged)
	sc.flagged = flagged
	for i := 0; i+w <= len(view); i++ {
		if adversary.ViewDensityRatio(ringIDs, i, w, est) < n.cfg.DensityThreshold {
			continue
		}
		for k := 0; k < w; k++ {
			flagged[i+k] = true
		}
	}
	for i, f := range flagged {
		if !f || view[i].ID == n.ref.ID {
			continue
		}
		evict := sc.request(wire.TEvict)
		evict.From = n.ref
		if err := n.pool.tryOnce(view[i], evict, &sc.reply); err == nil {
			n.evictsSent.Add(1)
		}
	}
}

// stabilizeOnce runs the classic Chord stabilization step over RPC:
// find the first reachable successor (pruning dead heads), adopt its
// predecessor if closer, refresh the successor list, and notify.
func (n *Node) stabilizeOnce() {
	n.stabilizes.Add(1)
	sc := &n.maint
	for {
		n.mu.Lock()
		if len(n.succ) == 0 || n.succ[0].ID == n.ref.ID {
			// Own successor: adopt the predecessor as successor if one
			// has shown up (the bootstrap node learning of its first
			// joiner — successor.predecessor when successor is self).
			if n.hasPred && n.pred.ID != n.ref.ID && n.pred.Addr != "" {
				n.succ = []wire.NodeRef{n.pred}
			} else {
				n.mu.Unlock()
				return // genuinely alone on the ring
			}
		}
		succ := n.succ[0]
		n.mu.Unlock()

		if err := n.pool.call(succ, sc.request(wire.TGetPred), &sc.reply); err != nil {
			// Dead or unreachable successor: drop it and try the backup
			// (this is exactly what the successor list exists for). Keep
			// at least self so the node can rejoin via fallbacks.
			n.mu.Lock()
			if len(n.succ) > 0 && n.succ[0].ID == succ.ID {
				n.succ = n.succ[1:]
			}
			n.rememberLostLocked(succ)
			empty := len(n.succ) == 0
			if empty {
				n.succ = []wire.NodeRef{n.ref}
			}
			n.mu.Unlock()
			if empty {
				return
			}
			continue
		}
		// Adopt succ.pred if it sits between us and succ and answers.
		if sc.reply.Flag {
			x := sc.reply.Node
			if x.Addr != "" && x.ID != n.ref.ID && ids.Between(x.ID, n.ref.ID, succ.ID) {
				if err := n.pool.call(x, sc.request(wire.TPing), &sc.reply); err == nil {
					succ = x
				}
			}
		}
		if err := n.pool.call(succ, sc.request(wire.TGetSuccList), &sc.reply); err != nil {
			return // skip the round; stale pointers heal next time
		}
		sc.refs = append(append(sc.refs[:0], succ), sc.reply.List...)
		n.mu.Lock()
		n.adoptSuccLocked(sc.refs)
		n.mu.Unlock()
		notify := sc.request(wire.TNotify)
		notify.From = n.ref
		_ = n.pool.call(succ, notify, &sc.reply)
		return
	}
}

// checkPredecessor is Chord's check_predecessor: clear a predecessor
// pointer that no longer answers so the true predecessor's next notify
// can take it (departed nodes would otherwise be remembered forever).
func (n *Node) checkPredecessor() {
	n.mu.Lock()
	pred, has := n.pred, n.hasPred
	n.mu.Unlock()
	if !has || pred.ID == n.ref.ID || pred.Addr == "" {
		return
	}
	if err := n.pool.call(pred, n.maint.request(wire.TPing), &n.maint.reply); err != nil {
		n.mu.Lock()
		if n.hasPred && n.pred.ID == pred.ID {
			n.hasPred = false
			n.rememberLostLocked(pred)
		}
		n.mu.Unlock()
	}
}

// rememberLostLocked adds r to the graveyard of pruned peers (deduped,
// FIFO-capped) so probeLost can check for its return; callers hold n.mu.
func (n *Node) rememberLostLocked(r wire.NodeRef) {
	if r.Addr == "" || r.ID == n.ref.ID {
		return
	}
	for _, l := range n.lost {
		if l.ID == r.ID {
			return
		}
	}
	n.lost = append(n.lost, r)
	if len(n.lost) > maxLostPeers {
		n.lost = n.lost[1:]
	}
}

// probeLost revisits one graveyard entry per maintenance round with a
// single cheap attempt (dials to dead peers fail fast; calls across an
// active partition are refused instantly). A peer that answers again
// means a partition healed: both sides now run self-consistent rings
// that ordinary stabilization can never merge, so this side re-resolves
// its own successor *through the revived peer* and adopts the answer if
// it tightens the pointer, then notifies it — one cross-ring edge, and
// stabilization zips the rest back together.
func (n *Node) probeLost() {
	sc := &n.maint
	n.mu.Lock()
	if len(n.lost) == 0 {
		n.mu.Unlock()
		return
	}
	cand := n.lost[n.lostNext%len(n.lost)]
	n.lostNext++
	n.mu.Unlock()
	if n.pool.tryOnce(cand, sc.request(wire.TPing), &sc.reply) != nil {
		return // still dead or still partitioned; try again next round
	}
	n.mu.Lock()
	for i, l := range n.lost {
		if l.ID == cand.ID {
			n.lost = append(n.lost[:i], n.lost[i+1:]...)
			break
		}
	}
	n.mu.Unlock()
	owner, _, err := lookupFrom(n.pool, n, cand, n.ref.ID.Add(ids.PowerOfTwo(0)), nil, &sc.lookup)
	if err != nil || owner.Addr == "" || owner.ID == n.ref.ID {
		return
	}
	n.mu.Lock()
	cur := n.ref
	if len(n.succ) > 0 {
		cur = n.succ[0]
	}
	if cur.ID == n.ref.ID || ids.Between(owner.ID, n.ref.ID, cur.ID) {
		sc.refs = append(append(sc.refs[:0], owner), n.succ...)
		n.adoptSuccLocked(sc.refs)
	}
	n.mu.Unlock()
	notify := sc.request(wire.TNotify)
	notify.From = n.ref
	_ = n.pool.call(owner, notify, &sc.reply)
}

// fixNextFinger advances the round-robin finger repair by one entry.
func (n *Node) fixNextFinger() {
	n.mu.Lock()
	i := n.nextFinger
	n.nextFinger = (n.nextFinger + 1) % ids.Bits
	target := n.ref.ID.Add(ids.PowerOfTwo(i))
	n.mu.Unlock()
	owner, _, err := lookupFrom(n.pool, n, n.ref, target, nil, &n.maint.lookup)
	if err != nil {
		return // leave the stale entry; a later round will retry
	}
	n.mu.Lock()
	n.fingers[i] = owner
	n.mu.Unlock()
}

// --- server ----------------------------------------------------------

// server admits connections on ln and answers each on its own
// goroutine through serveConn until close. Node and Collector both
// serve this way.
type server struct {
	ln    net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{} // open connections; nil once closed
	wg    sync.WaitGroup
}

// acceptLoop admits inbound connections until the listener closes.
// Each connection's frames pass through nf (nil: no faults) as sent by
// self, and handler makes the connection's request handler.
func (s *server) acceptLoop(cfg Config, nf *NetFaults, self ids.ID, handler func() func(req, reply *wire.Msg)) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		// A conn accepted while close runs (a listener may still hand
		// one over after it closed) must not outlive it: close would
		// never close it, and a peer still using it would keep serveConn,
		// and so close's wait, alive.
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			serveConn(cfg, conn, nf.Wrap(conn, self, ids.Zero), handler())
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// close stops accepting, closes every open connection and waits for
// the server's goroutines. Calling it again only waits.
func (s *server) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn answers the requests on one accepted connection until EOF,
// idle timeout, a malformed frame or shutdown, then closes it. raw
// carries the deadlines; conn is raw itself or raw behind the fault
// layer, and carries the frames.
//
// One request Msg and one reply Msg serve the whole connection. Each
// request is read into the same Msg, so handle must copy whatever it
// keeps past its return out of req's slices (strings are safe: the
// decoder never rewrites one). handle fills reply, which arrives reset
// with its Value and List emptied but keeping their capacity: a handler
// may append into those two, and must set any other slice only to
// memory nothing else keeps.
func serveConn(cfg Config, raw, conn net.Conn, handle func(req, reply *wire.Msg)) {
	defer func() { _ = raw.Close() }()
	fc := wire.NewConn(conn)
	idle := cfg.Ticks(cfg.IdleConnTicks)
	var req, reply wire.Msg
	for {
		if err := raw.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return
		}
		if err := fc.ReadMsg(&req); err != nil {
			return
		}
		reply = wire.Msg{Value: reply.Value[:0], List: reply.List[:0]}
		handle(&req, &reply)
		reply.Req = req.Req
		if err := raw.SetWriteDeadline(time.Now().Add(cfg.rpcTimeout())); err != nil {
			return
		}
		if err := fc.WriteMsg(&reply); err != nil {
			return
		}
	}
}

// handler returns the request handler for one accepted connection. It
// holds that connection's scratch: the store records a replica push or
// a transfer is converted into, reused from request to request.
func (n *Node) handler() func(req, reply *wire.Msg) {
	var recs []store.Rec
	return func(req, reply *wire.Msg) { n.handle(req, reply, &recs) }
}

// handle dispatches one request, filling reply (see serveConn). recs is
// the connection's storeRecs scratch. Handlers hold n.mu only over
// local state, never across a call to another node, so a request cycle
// between nodes can never deadlock on n.mu.
func (n *Node) handle(req, reply *wire.Msg, recs *[]store.Rec) {
	n.served[req.Type].Add(1)
	switch req.Type {
	case wire.TGet, wire.TPut, wire.TTask:
		// A keyed request outside the arc is refused before it touches
		// the store or consumes an idempotency token, so a sender with a
		// stale route learns of it instead of reading a leftover replica.
		if !n.owns(req.Key) {
			errorMsg(reply, CodeNotOwner, "key outside this node's arc")
			return
		}
	}
	switch req.Type {
	case wire.TPing:
		reply.Type = wire.TPong

	case wire.TFindSuccessor:
		if req.A > uint64(maxHops) {
			errorMsg(reply, CodeNoRoute, "hop budget exceeded")
			return
		}
		reply.Type = wire.TFindSuccessorOK
		reply.Flag, reply.Node, reply.List = n.routeStep(req.Key, reply.List)

	case wire.TGetPred:
		reply.Type = wire.TGetPredOK
		n.mu.Lock()
		reply.Flag, reply.Node = n.hasPred, n.pred
		n.mu.Unlock()

	case wire.TGetSuccList:
		reply.Type = wire.TSuccListOK
		n.mu.Lock()
		reply.List = append(reply.List, n.succ...)
		n.mu.Unlock()

	case wire.TNotify:
		if req.From.Addr == "" {
			errorMsg(reply, CodeBadRequest, "notify without sender ref")
			return
		}
		n.notify(req.From)
		reply.Type = wire.TAck

	case wire.TJoin:
		n.handleJoin(req, reply)

	case wire.TGet:
		v, ver, ok, err := n.st.AppendValue(reply.Value, req.Key)
		if err != nil {
			errorMsg(reply, CodeUnavailable, "store read: "+err.Error())
			return
		}
		// Read-work coupling: a served read charges the owner work
		// units, so read-heavy arcs surface in the workload signals the
		// strategies act on. Reads during a leave are still answered
		// (the data is there) but charge nothing — the leaver's queue
		// has already been snapshotted for transfer.
		if units := n.cfg.ReadWorkUnits; units > 0 && ok {
			n.mu.Lock()
			if !n.leaving {
				n.addTaskLocked(req.Key, units)
			}
			n.mu.Unlock()
		}
		reply.Type, reply.Flag, reply.Value, reply.A = wire.TGetOK, ok, v, ver

	case wire.TPut:
		// The owner write path: durable locally (fsynced when SyncWrites
		// is on) AND acknowledged by Replicas-1 distinct successors
		// before the TAck goes back. Blocking on those round trips here
		// is deadlock-free — serveConn runs one goroutine per
		// connection and putDurable holds no lock while calling out —
		// and is exactly what "acknowledged means durable" requires.
		// The store copies the value, so req.Value is not kept.
		ver, err := n.putDurable(req.Key, req.Value)
		if err != nil {
			n.mu.Lock()
			leaving := n.leaving
			n.mu.Unlock()
			if leaving {
				errorMsg(reply, CodeShutdown, "node is leaving")
				return
			}
			errorMsg(reply, CodeUnavailable, "durable put: "+err.Error())
			return
		}
		reply.Type, reply.A = wire.TAck, ver

	case wire.TTask:
		// The leaving check shares the critical section with the
		// application: checked-then-applied across two lock acquisitions
		// would let units slip in between Leave's snapshot and Close.
		n.mu.Lock()
		if n.leaving {
			n.mu.Unlock()
			errorMsg(reply, CodeShutdown, "node is leaving")
			return
		}
		if n.applyTokenLocked(req.B) {
			n.addTaskLocked(req.Key, req.A)
		}
		n.mu.Unlock()
		reply.Type = wire.TAck

	case wire.TReplicate:
		// Replica push: apply version-winning records and report our
		// resulting version for the (single-record) durable-put ack
		// path. The leaving check keeps Leave's snapshot authoritative.
		n.mu.Lock()
		if n.leaving {
			n.mu.Unlock()
			errorMsg(reply, CodeShutdown, "node is leaving")
			return
		}
		n.mu.Unlock()
		if err := n.applyRecs(recs, req.Recs); err != nil {
			errorMsg(reply, CodeUnavailable, "replica apply: "+err.Error())
			return
		}
		reply.Type = wire.TAck
		if len(req.Recs) == 1 {
			reply.A, _ = n.st.Ver(req.Recs[0].Key)
		}

	case wire.TTransfer:
		n.mu.Lock()
		if n.leaving {
			n.mu.Unlock()
			errorMsg(reply, CodeShutdown, "node is leaving")
			return
		}
		fresh := n.applyTokenLocked(req.A)
		if fresh {
			for _, tk := range req.Tasks {
				n.addTaskLocked(tk.Key, tk.Units)
			}
		}
		n.mu.Unlock()
		if fresh {
			if err := n.applyRecs(recs, req.Recs); err != nil {
				errorMsg(reply, CodeUnavailable, "transfer apply: "+err.Error())
				return
			}
		}
		reply.Type = wire.TAck

	case wire.TSyncDigest:
		if n.isLeaving() {
			errorMsg(reply, CodeShutdown, "node is leaving")
			return
		}
		sum, count := n.st.Digest(req.Key, req.Key2)
		reply.Type, reply.Value, reply.A = wire.TSyncDigestOK, append(reply.Value, sum[:]...), uint64(count)

	case wire.TSyncKeys:
		if n.isLeaving() {
			errorMsg(reply, CodeShutdown, "node is leaving")
			return
		}
		metas, total := n.st.Metas(req.Key, req.Key2, wire.MaxMetas)
		reply.Type, reply.Metas, reply.A = wire.TSyncKeysOK, wireMetas(metas), uint64(total)

	case wire.TSyncFetch:
		if n.isLeaving() {
			errorMsg(reply, CodeShutdown, "node is leaving")
			return
		}
		out := make([]wire.Rec, 0, len(req.Metas))
		for _, m := range req.Metas {
			v, ver, ok, err := n.st.Get(m.Key)
			if err != nil {
				errorMsg(reply, CodeUnavailable, "sync fetch: "+err.Error())
				return
			}
			if ok {
				out = append(out, wire.Rec{Key: m.Key, Ver: ver, Value: v})
			}
		}
		reply.Type = wire.TSyncFetchOK
		reply.Recs, _ = splitRecChunk(out)

	case wire.TWorkloadQuery:
		reply.Type, reply.A = wire.TWorkloadOK, n.TaskUnits()
		if h := n.host; h != nil {
			reply.B, reply.C, reply.Flag = uint64(h.Workload()), uint64(h.Strength()), h.willHelp()
		}

	case wire.TInvite:
		// considerInvite keeps req.Key and req.From.Addr, both values.
		reply.Type, reply.Flag = wire.TInviteOK, n.host != nil && n.host.considerInvite(req)

	case wire.TEvict:
		if req.From.Addr == "" {
			errorMsg(reply, CodeBadRequest, "evict without sender ref")
			return
		}
		// Advisory by design: an ownerless (or already-leaving) node just
		// acknowledges. The host only notes the notice here and retires
		// the identity at its next step, so the serve path never blocks
		// on an induced churn cycle.
		if h := n.host; h != nil && !n.isLeaving() {
			h.considerEvict(n)
		}
		reply.Type = wire.TAck

	default:
		errorMsg(reply, CodeBadRequest, "unexpected message "+req.Type.String())
	}
}

// isLeaving reports whether Leave has begun.
func (n *Node) isLeaving() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaving
}

// keptRecs bounds the store records a connection's scratch keeps
// between requests: a replica push is one record, and an anti-entropy
// batch of thousands is not pinned.
const keptRecs = 64

// applyRecs merges in, a request's records, into the store through the
// connection's scratch recs. The scratch is cleared afterwards, so it
// keeps none of the request's values, and dropped when a large batch
// grew it past keptRecs.
func (n *Node) applyRecs(recs *[]store.Rec, in []wire.Rec) error {
	*recs = storeRecs((*recs)[:0], in)
	_, err := n.st.ApplyAll(*recs)
	clear(*recs)
	if cap(*recs) > keptRecs {
		*recs = nil
	}
	return err
}

// handleJoin admits joiner From as this node's new predecessor. It
// moves the task units in (pred, From.ID] out of the node and pushes
// them, with a copy of every record in that arc (the node keeps its
// own as replicas), to the joiner through transferTo: the chunked,
// token-deduplicated TTransfer path a leave uses, so a retried chunk is
// never applied twice. Units the push could not deliver are put back
// and the join is refused with CodeUnavailable; on success the joiner
// becomes the predecessor and the reply carries the successor List.
func (n *Node) handleJoin(req, reply *wire.Msg) {
	j := req.From
	if j.Addr == "" || j.ID == n.ref.ID {
		errorMsg(reply, CodeBadRequest, "bad join ref")
		return
	}
	if !adversary.VerifyPuzzle(j.ID, req.A, n.cfg.PuzzleBits) {
		errorMsg(reply, CodeBadRequest, "join puzzle unsolved")
		return
	}
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		errorMsg(reply, CodeShutdown, "node is leaving")
		return
	}
	low := n.ref.ID
	if n.hasPred {
		low = n.pred.ID
	}
	// low == j.ID happens when the joiner is already our predecessor (a
	// retried join whose first reply was lost); the interval (j, j]
	// would cover the whole ring, so hand over nothing — the first
	// attempt already pushed the arc.
	rejoin := low == j.ID
	var tasks []wire.Task
	if !rejoin {
		for _, k := range sortedTaskKeys(n.tasks) {
			if ids.BetweenRightIncl(k, low, j.ID) {
				tasks = append(tasks, wire.Task{Key: k, Units: n.tasks[k]})
				n.taskUnits -= n.tasks[k]
				delete(n.tasks, k)
			}
		}
	}
	n.handoffs.Add(1)
	n.mu.Unlock()
	defer n.handoffs.Done()
	if !rejoin {
		arc, err := n.st.ArcRecs(low, j.ID, 1<<30)
		if err == nil {
			_, tasks, err = n.transferTo(j, wireRecs(arc), tasks)
		}
		if err != nil {
			n.mu.Lock()
			for _, tk := range tasks {
				n.addTaskLocked(tk.Key, tk.Units)
			}
			n.mu.Unlock()
			errorMsg(reply, CodeUnavailable, "join hand-off: "+err.Error())
			return
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	reply.Type = wire.TJoinOK
	reply.List = append(reply.List, n.succ...)
	// Adopt the joiner as predecessor when it improves the pointer.
	if !n.hasPred || ids.Between(j.ID, n.pred.ID, n.ref.ID) {
		n.pred = j
		n.hasPred = true
	}
}

// notify is Chord's notify handler: adopt caller as predecessor when
// it sits between the current predecessor and us (caller is a value:
// its Addr string is never rewritten by the next decode).
func (n *Node) notify(caller wire.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if caller.ID == n.ref.ID {
		return
	}
	if !n.hasPred || n.pred.ID == n.ref.ID || ids.Between(caller.ID, n.pred.ID, n.ref.ID) {
		n.pred = caller
		n.hasPred = true
	}
}

// errorMsg makes reply a TError.
func errorMsg(reply *wire.Msg, code uint64, text string) {
	reply.Type, reply.A, reply.Text = wire.TError, code, text
}

// --- helpers ---------------------------------------------------------

// dedupeRefs returns list with self, addressless entries and
// duplicate IDs removed, first occurrence kept, in dst's memory; dst
// and list must not overlap. The output holds at most max entries, so
// max 0 or less returns none. A list holds at most SuccessorListLen+1
// entries, so a linear scan of the output finds duplicates without a
// map.
func dedupeRefs(dst, list []wire.NodeRef, self ids.ID, max int) []wire.NodeRef {
	out := dst[:0]
next:
	for _, r := range list {
		if len(out) >= max {
			break
		}
		if r.ID == self || r.Addr == "" {
			continue
		}
		for _, o := range out {
			if o.ID == r.ID {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// adoptSuccLocked makes list, deduplicated, the successor list. It
// replaces n.succ only when the result differs, and then with a new
// slice: n.succ's backing array is never written, since a reader may
// hold it. Callers hold n.mu and run the node's rounds (it dedupes
// into n.maint).
func (n *Node) adoptSuccLocked(list []wire.NodeRef) {
	n.maint.more = dedupeRefs(n.maint.more, list, n.ref.ID, n.cfg.SuccessorListLen)
	if !slices.Equal(n.maint.more, n.succ) {
		n.succ = slices.Clone(n.maint.more)
	}
}

// sortedTaskKeys returns m's keys in ascending ring order, so bulk
// operations iterate deterministically (and lint's maporder is happy).
func sortedTaskKeys(m map[ids.ID]uint64) []ids.ID {
	out := make([]ids.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
