package netchord

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chordbalance/internal/ids"
	"chordbalance/internal/strategy"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// StrategyNone names the baseline strategy: no Sybils, no reaction.
// NewHost and NewCluster accept every name strategy.ByName does.
const StrategyNone = "none"

// HostStats snapshots one host's cumulative activity.
type HostStats struct {
	// Consumed is the cumulative task units consumed.
	Consumed uint64
	// Residual is the current residual workload across all vnodes.
	Residual uint64
	// FirstBusyTick and LastBusyTick bracket the host's busy interval
	// (both 0 until work first arrives).
	FirstBusyTick, LastBusyTick int
	// Sybils is the current live Sybil count.
	Sybils int
	// Injections counts Sybils this host created over its lifetime.
	Injections int
	// Churns counts leave/rejoin cycles (induced churn, ChurnProb).
	Churns int
	// Evictions counts identities this host retired in response to
	// density-defense TEvict notices (docs/ADVERSARY.md). On an honest
	// host every one of these is defense collateral: the balancing
	// strategies mint dense IDs by design.
	Evictions int
}

// Host is one physical machine in the networked runtime: a primary
// virtual node plus up to MaxSybils Sybil identities, a per-tick
// consume step, a report stream to the collector, and one of the
// paper's strategies run every DecisionEveryTicks ticks.
//
// One goroutine changes a host's identities: the one calling step, its
// own loop or a Lockstep's. Request handlers only note invitations and
// eviction notices; the next step answers them, under the Sybil cap.
//
// The Host is both the strategy.World and the strategy.View its
// strategy decides through: the same internal/strategy code the
// simulator runs, except that a Host sees only what it can observe over
// the wire — its own workload, its primary's successor list, the
// predecessor chain, and replies to the workload queries and
// invitations it sends.
type Host struct {
	cfg       Config
	tr        Transport
	nf        *NetFaults
	drv       driver
	index     int
	strat     strategy.Strategy
	rng       *xrand.Rand
	hostID    ids.ID // stable across churn; keys collector records
	collector string // collector address ("" = no reporting)
	ctl       *peerPool

	mu        sync.Mutex
	primary   *Node
	sybils    []*Node
	consumed  uint64
	firstBusy int
	lastBusy  int
	everBusy  bool
	tick      int
	injects   int
	injUnits  uint64 // task units the injected Sybils acquired at birth
	churns    int
	evicts    int

	// Pending responses, filled by request handlers, drained by step:
	// an accepted invitation (inviteVia "" = none) and an identity a
	// density notice named (nil = none).
	inviteAt  ids.ID
	inviteVia string
	evict     *Node

	// peers maps the IDs the current decision pass saw in its successor
	// and predecessor windows to their addresses, so Load, Offer and
	// Invite can reach them. Only the decision pass touches it.
	peers map[ids.ID]wire.NodeRef

	// sybilSeq feeds jitterID. Only step touches it, like h.rng.
	sybilSeq uint64
	// repBuf is encodeReport's buffer, touched only by the goroutine
	// that steps the host.
	repBuf []byte

	// Storage counters, cumulative across churn: nodes mirror their
	// per-identity counters here because induced churn replaces the
	// identity (and its counters) wholesale, and the collector needs
	// monotone per-host series.
	stAcked       atomic.Int64 // durably acknowledged owner writes
	stAntiRounds  atomic.Int64 // anti-entropy passes started
	stAntiRepairs atomic.Int64 // records pushed or pulled by anti-entropy
	stAntiBytes   atomic.Int64 // value bytes moved by anti-entropy

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// NewHost boots one wall-clock host: it creates the primary node under
// a deterministic per-host RNG stream, creates a fresh ring when
// joinAddr is empty or joins through it otherwise, and starts the
// node's own loops, as for every identity it spawns. Call Start to
// begin consuming, reporting, and deciding. collectorAddr may be empty
// (no reports). nf may be nil (no faults). strat is any name
// strategy.ByName accepts; the host runs its own instance.
func NewHost(cfg Config, tr Transport, nf *NetFaults, index int, strat string, seed uint64, joinAddr, collectorAddr string) (*Host, error) {
	return newHost(cfg, tr, nf, wallClock{}, index, strat, seed, joinAddr, collectorAddr)
}

// A driver runs a host's identities: run brings one the host spawned
// into service, drop forgets one it retired or churned away. The wall
// clock starts each node's own loops; a Lockstep maintains its nodes.
type driver interface {
	run(*Node)
	drop(*Node)
}

// wallClock runs each identity on its own goroutines.
type wallClock struct{}

func (wallClock) run(n *Node) { n.Start() }
func (wallClock) drop(*Node)  {}

// newHost is NewHost under driver drv.
func newHost(cfg Config, tr Transport, nf *NetFaults, drv driver, index int, strat string, seed uint64, joinAddr, collectorAddr string) (*Host, error) {
	st, ok := strategy.ByName(strat)
	if !ok {
		return nil, fmt.Errorf("netchord: unknown strategy %q", strat)
	}
	cfg = cfg.WithDefaults()
	h := &Host{
		cfg:       cfg,
		tr:        tr,
		nf:        nf,
		drv:       drv,
		index:     index,
		strat:     st,
		rng:       xrand.NewStream(seed, index),
		collector: collectorAddr,
		peers:     make(map[ids.ID]wire.NodeRef),
		closed:    make(chan struct{}),
	}
	h.hostID = ids.Random(h.rng)
	// Collector traffic is control-plane/observability, not protocol
	// traffic: it bypasses the fault layer so measurements survive the
	// faults they measure.
	h.ctl = newPeerPool(tr, cfg, nil, func() ids.ID { return h.hostID })
	// A failed first join has no primary to re-own what the giver could
	// not take back.
	n, _, _, err := h.spawn(ids.Random(h.rng), joinAddr)
	if err != nil {
		return nil, err
	}
	drv.run(n)
	h.primary = n
	return h, nil
}

// spawn creates one of the host's identities at id: it joins the ring
// through via, or creates a ring alone when via is empty. A handshake
// can fail after the giver pushed part of its arc here, and those units
// are acked: the node then leaves, handing them back to the giver, and
// spawn returns what no successor took, for the caller to re-own as
// retire does.
func (h *Host) spawn(id ids.ID, via string) (*Node, []wire.Rec, []wire.Task, error) {
	n, err := NewNode(h.cfg, h.tr, h.nf, id, "")
	if err != nil {
		return nil, nil, nil, err
	}
	n.host = h
	if via == "" {
		n.Create()
	} else if err := n.Join(via); err != nil {
		recs, tasks, _ := n.leaveRemainder()
		return nil, recs, tasks, err
	}
	return n, nil, nil, nil
}

// Start sends the host's first report, which registers it with the
// collector, and launches the host loop (consume, report, decide).
func (h *Host) Start() {
	h.report()
	h.wg.Add(1)
	go h.loop()
}

// Close stops the host loop and shuts down every virtual node.
func (h *Host) Close() {
	h.closeOnce.Do(func() { close(h.closed) })
	h.wg.Wait()
	for _, n := range h.Nodes() {
		n.Close()
	}
	h.ctl.close()
}

// Index returns the host's stable index.
func (h *Host) Index() int { return h.index }

// PrimaryNode returns the host's current primary node.
func (h *Host) PrimaryNode() *Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.primary
}

// Nodes returns the host's live virtual nodes, primary first.
func (h *Host) Nodes() []*Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Node, 0, 1+len(h.sybils))
	if h.primary != nil {
		out = append(out, h.primary)
	}
	return append(out, h.sybils...)
}

// Workload sums residual task units across the host's virtual nodes —
// the only load signal a real host has locally (§V).
func (h *Host) Workload() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	sum := 0
	if h.primary != nil {
		sum = int(h.primary.TaskUnits())
	}
	for _, n := range h.sybils {
		sum += int(n.TaskUnits())
	}
	return sum
}

// Stats snapshots the host's counters.
func (h *Host) Stats() HostStats {
	residual := h.Workload()
	h.mu.Lock()
	defer h.mu.Unlock()
	return HostStats{
		Consumed:      h.consumed,
		Residual:      uint64(residual),
		FirstBusyTick: h.firstBusy,
		LastBusyTick:  h.lastBusy,
		Sybils:        len(h.sybils),
		Injections:    h.injects,
		Churns:        h.churns,
		Evictions:     h.evicts,
	}
}

// loop is the wall-clock host's heartbeat: one step per tick. Steps may
// block on RPCs; missed ticker beats are simply dropped, which is the
// honest cost of acting on a network.
func (h *Host) loop() {
	defer h.wg.Done()
	every(h.cfg.TickEvery, h.closed, h.step)
	h.report() // final report so the collector sees the end state
}

// step runs one host tick: it answers the pending eviction and
// invitation, consumes, reports every ReportEveryTicks and decides
// every DecisionEveryTicks.
func (h *Host) step() {
	h.mu.Lock()
	h.tick++
	tick := h.tick
	evict, at, via := h.evict, h.inviteAt, h.inviteVia
	h.evict, h.inviteVia = nil, ""
	h.mu.Unlock()
	h.retireEvicted(evict)
	if via != "" {
		_, _ = h.injectSybil(at, via)
	}
	h.consumeTick(tick)
	if tick%ReportEveryTicks == 0 {
		h.report()
	}
	if tick%h.cfg.DecisionEveryTicks == 0 {
		h.decide()
	}
}

// consumeTick spends the host's per-tick compute budget across its
// virtual nodes, primary first (the uniform-host model: capacity
// belongs to the machine, not the identity).
func (h *Host) consumeTick(tick int) {
	budget := uint64(h.cfg.ConsumePerTick)
	h.mu.Lock()
	defer h.mu.Unlock()
	var done uint64
	if h.primary != nil {
		done = h.primary.consume(budget)
	}
	for _, n := range h.sybils {
		if done >= budget {
			break
		}
		done += n.consume(budget - done)
	}
	if done == 0 {
		return
	}
	h.consumed += done
	if !h.everBusy {
		h.everBusy = true
		h.firstBusy = tick
	}
	h.lastBusy = tick
}

// report pushes the host's cumulative counters to the collector as one
// TReport. The storage counters are cumulative across churn (host
// atomics, not node counters).
func (h *Host) report() {
	if h.collector == "" {
		return
	}
	_ = h.ctl.call(wire.NodeRef{Addr: h.collector}, &wire.Msg{
		Type:  wire.TReport,
		From:  wire.NodeRef{ID: h.hostID},
		Value: h.encodeReport(),
	}, nil)
}

// encodeReport encodes the host's counters into repBuf and returns it.
// One buffer serves every report: only the goroutine that steps the
// host reports (Start's first report precedes its loop), and ctl.call
// has encoded the message's Value into its frame by the time it
// returns.
func (h *Host) encodeReport() []byte {
	s := wire.Stats{
		Hosts:              1,
		Residual:           uint64(h.Workload()),
		Capacity:           uint64(h.cfg.ConsumePerTick),
		StoreAcked:         uint64(h.stAcked.Load()),
		AntiEntropyRounds:  uint64(h.stAntiRounds.Load()),
		AntiEntropyRepairs: uint64(h.stAntiRepairs.Load()),
		AntiEntropyBytes:   uint64(h.stAntiBytes.Load()),
	}
	h.mu.Lock()
	s.Consumed = h.consumed
	if h.everBusy {
		s.BusyTicks = uint64(h.lastBusy - h.firstBusy + 1)
	}
	s.Injections = uint64(h.injects)
	s.InjectedUnits = h.injUnits
	h.mu.Unlock()
	h.repBuf = wire.AppendStats(h.repBuf[:0], &s)
	return h.repBuf
}

// decide runs one decision pass on the host loop: the induced-churn
// draw (a Bernoulli(ChurnProb) per pass, as ChurnRate is per tick in
// the simulator), then the host's strategy through its own View. It may
// perform RPCs; it never holds h.mu across a call.
func (h *Host) decide() {
	if h.cfg.ChurnProb > 0 && h.rng.Bool(h.cfg.ChurnProb) {
		h.churnPrimary()
	}
	h.strat.Decide(h)
}

// churnPrimary executes one leave/rejoin cycle of the primary under a
// fresh identifier: a host's induced churn, shared with the density
// defense (retireEvicted), which retires a flagged primary by forcing
// exactly this cycle — eviction is churn the network imposes rather
// than the host chooses.
func (h *Host) churnPrimary() {
	h.mu.Lock()
	primary := h.primary
	h.mu.Unlock()
	if primary == nil {
		return
	}
	// Remember where to re-enter before the node departs.
	vias := primary.SuccessorList()
	if len(vias) == 0 || vias[0].ID == primary.ID() {
		return // alone on the ring: churn is a no-op
	}
	// Leave may fail to place some state (every successor itself
	// mid-leave, say); the leftovers are re-owned by the next identity
	// below, so churn never loses work.
	recs, tasks, _ := primary.leaveRemainder()
	h.drv.drop(primary)
	var next *Node
	for _, via := range vias {
		n, r, t, err := h.spawn(ids.Random(h.rng), via.Addr)
		recs, tasks = append(recs, r...), append(tasks, t...)
		if err == nil {
			next = n
			break
		}
	}
	if next == nil {
		// Every rejoin path failed (e.g. mid-partition): restart alone
		// so the host keeps serving; the graveyard probes re-merge the
		// rings after heal.
		n, _, _, err := h.spawn(ids.Random(h.rng), "")
		if err != nil {
			return
		}
		next = n
	}
	reown(next, recs, tasks)
	h.drv.run(next)
	h.mu.Lock()
	h.primary = next
	h.churns++
	h.mu.Unlock()
}

// reown hands n the records and task units a departing identity could
// not deliver to any successor.
func reown(n *Node, recs []wire.Rec, tasks []wire.Task) {
	n.mu.Lock()
	for _, tk := range tasks {
		n.addTaskLocked(tk.Key, tk.Units)
	}
	n.mu.Unlock()
	if _, err := n.st.ApplyAll(storeRecs(nil, recs)); err != nil {
		// Surviving replicas still hold these records; anti-entropy
		// re-converges the set even if the re-own write fails.
		n.replicaErrs.Add(1)
	}
}

// retire takes Sybil n off the ring gracefully. Whatever it could not
// hand to a successor is re-owned at the host's primary, as churn
// re-owns at the next identity, so retiring a Sybil never loses work.
func (h *Host) retire(n *Node) {
	recs, tasks, _ := n.leaveRemainder()
	h.drv.drop(n)
	reown(h.PrimaryNode(), recs, tasks)
}

// jitterID perturbs the low 64 bits of id with the host's stable
// identity and a per-host sequence number. Arc midpoints are symmetric:
// two idle hosts observing the same loaded arc compute the *same*
// midpoint (and helpers invited into one arc are handed the same
// placement), and concurrent joins under one identifier wedge the ring
// permanently (duplicate IDs break the successor ordering every
// stabilization relies on). The perturbation is at most 2^64 of a
// 2^ids.Bits space — invisible at arc scale, decisive for uniqueness.
func (h *Host) jitterID(id ids.ID) ids.ID {
	h.sybilSeq++
	salt := binary.BigEndian.Uint64(h.hostID[len(h.hostID)-8:]) + h.sybilSeq
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], salt)
	for i := 0; i < 8; i++ {
		id[len(id)-8+i] ^= b[i]
	}
	return id
}

// --- strategy.World and strategy.View ---------------------------------

// Params implements strategy.World from the host's Config.
func (h *Host) Params() strategy.Params {
	return strategy.Params{
		SybilThreshold:  int(h.cfg.SybilThreshold),
		InviteThreshold: int(h.cfg.InviteThreshold),
		NumSuccessors:   h.cfg.SuccessorListLen,
		DecisionEvery:   h.cfg.DecisionEveryTicks,
	}
}

// RNG implements strategy.World: the host's own stream.
func (h *Host) RNG() *xrand.Rand { return h.rng }

// ChargeMessages implements strategy.World. It records nothing: here
// the messages are real, and the receivers' Node.Stats count them.
func (h *Host) ChargeMessages(string, int) {}

// EachHost implements strategy.World: a live host sees only itself.
func (h *Host) EachHost(fn func(strategy.View)) {
	clear(h.peers)
	fn(h)
}

// SybilCount implements strategy.View.
func (h *Host) SybilCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sybils)
}

// CanCreateSybil implements strategy.View: the host is under its cap.
func (h *Host) CanCreateSybil() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sybils) < h.cfg.MaxSybils
}

// Strength implements strategy.View: the per-tick compute budget.
func (h *Host) Strength() int { return h.cfg.ConsumePerTick }

// own returns the host's node with the given ID, or nil.
func (h *Host) own(id ids.ID) *Node {
	for _, n := range h.Nodes() {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// Primary implements strategy.View.
func (h *Host) Primary() strategy.Peer { return h.VNodes()[0] }

// VNodes implements strategy.View. A node's PredID is zero until it
// learns its predecessor.
func (h *Host) VNodes() []strategy.Peer {
	var out []strategy.Peer
	for _, n := range h.Nodes() {
		pred, _ := n.Predecessor()
		out = append(out, strategy.Peer{ID: n.ID(), PredID: pred.ID, Mine: true})
	}
	return out
}

// see records where ref is reachable this pass and describes it.
func (h *Host) see(ref wire.NodeRef, pred ids.ID) strategy.Peer {
	h.peers[ref.ID] = ref
	return strategy.Peer{ID: ref.ID, PredID: pred, Mine: h.own(ref.ID) != nil}
}

// Successors implements strategy.View from the primary's successor
// list, stopping where the list wraps back to the primary.
func (h *Host) Successors(k int) []strategy.Peer {
	primary := h.PrimaryNode()
	var out []strategy.Peer
	prev := primary.ID()
	for _, s := range primary.SuccessorList() {
		if len(out) == k || s.ID == primary.ID() {
			break
		}
		out = append(out, h.see(s, prev))
		prev = s.ID
	}
	return out
}

// Predecessors implements strategy.View by walking the predecessor
// chain: one TGetPred per predecessor, whose reply is also that
// predecessor's PredID.
func (h *Host) Predecessors(k int) []strategy.Peer {
	primary := h.PrimaryNode()
	var out []strategy.Peer
	cur, ok := primary.Predecessor()
	var reply wire.Msg
	for ok && len(out) < k && cur.ID != primary.ID() {
		if err := primary.pool.call(cur, &wire.Msg{Type: wire.TGetPred}, &reply); err != nil || !reply.Flag {
			break
		}
		out = append(out, h.see(cur, reply.Node.ID))
		cur = reply.Node
	}
	return out
}

// Load implements strategy.View: local for the host's own nodes, one
// TWorkloadQuery otherwise.
func (h *Host) Load(p strategy.Peer) int {
	if n := h.own(p.ID); n != nil {
		return int(n.TaskUnits())
	}
	return int(h.query(p).A)
}

// Offer implements strategy.View with one TWorkloadQuery, whose reply
// carries the host's load (B), strength (C) and willingness (Flag).
func (h *Host) Offer(p strategy.Peer) (load, strength int, ok bool) {
	r := h.query(p)
	return int(r.B), int(r.C), r.Flag
}

// query sends p a TWorkloadQuery. A peer that does not answer reads as
// an empty reply: no load, no offer.
func (h *Host) query(p strategy.Peer) wire.Msg {
	var r wire.Msg
	if ref, ok := h.peers[p.ID]; ok {
		if err := h.PrimaryNode().pool.call(ref, &wire.Msg{Type: wire.TWorkloadQuery}, &r); err == nil {
			return r
		}
	}
	return wire.Msg{}
}

// SplitPoint implements strategy.View. No RPC reports another node's
// key median, so a live host cannot tell.
func (h *Host) SplitPoint(strategy.Peer) (ids.ID, bool) { return ids.ID{}, false }

// CreateSybil implements strategy.View: the Sybil joins through the
// primary (injectSybil).
func (h *Host) CreateSybil(id ids.ID) (int, bool) {
	return h.injectSybil(id, h.PrimaryNode().Addr())
}

// Invite implements strategy.View: a TInvite asking p's host to inject
// a Sybil at id (in Key). The helper answers at once and injects at its
// next step (considerInvite).
func (h *Host) Invite(p strategy.Peer, id ids.ID) bool {
	ref, ok := h.peers[p.ID]
	if !ok {
		return false
	}
	primary := h.PrimaryNode()
	var reply wire.Msg
	err := primary.pool.call(ref, &wire.Msg{Type: wire.TInvite, Key: id, From: primary.Ref(), A: primary.TaskUnits()}, &reply)
	return err == nil && reply.Flag
}

// DropSybils implements strategy.View: every Sybil retires.
func (h *Host) DropSybils() {
	h.mu.Lock()
	drop := h.sybils
	h.sybils = nil
	h.mu.Unlock()
	for _, s := range drop {
		h.retire(s)
	}
}

// RandomID implements strategy.View. A live host cannot see which IDs
// are taken; at 2^-ids.Bits per draw it need not.
func (h *Host) RandomID() ids.ID { return ids.Random(h.rng) }

// willHelp reports whether the host would accept an invitation now: at
// or below the Sybil threshold, under its cap, and holding no
// invitation it has not answered yet.
func (h *Host) willHelp() bool {
	if h.Workload() > int(h.cfg.SybilThreshold) {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sybils) < h.cfg.MaxSybils && h.inviteVia == ""
}

// considerInvite is the helper side of an invitation, called from a
// node's request handler. It answers at once; on accepting, it notes
// the placement in req.Key and the inviter's address, and step injects
// the Sybil there.
func (h *Host) considerInvite(req *wire.Msg) bool {
	if req.From.Addr == "" || !h.willHelp() {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.inviteVia != "" {
		return false // another invitation took the slot since willHelp
	}
	h.inviteAt, h.inviteVia = req.Key, req.From.Addr
	return true
}

// considerEvict is the honest host's response to a density eviction
// notice naming n, one of its identities, called from the node's
// request handler. It notes n and returns; step retires it
// (retireEvicted). One retirement at a time: a cluster triggers a burst
// of notices from every scanning neighbor, and retiring one identity
// per burst already moves the flagged window, so a notice that finds
// the slot taken is dropped.
func (h *Host) considerEvict(n *Node) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.evict == nil {
		h.evict = n
	}
}

// retireEvicted retires the identity an eviction notice named: a
// flagged Sybil leaves gracefully, a flagged primary re-keys through one
// induced churn cycle — the host stays alive either way, only the
// improbably placed identity dies. A stale notice, or none (nil),
// changes nothing.
func (h *Host) retireEvicted(n *Node) {
	h.mu.Lock()
	isPrimary, i := h.primary == n, slices.Index(h.sybils, n)
	if i >= 0 {
		h.sybils = slices.Delete(h.sybils, i, i+1)
	}
	if isPrimary || i >= 0 {
		h.evicts++
	}
	h.mu.Unlock()
	switch {
	case isPrimary:
		h.churnPrimary()
	case i >= 0:
		h.retire(n)
	}
}

// injectSybil projects a Sybil identity at id, jittered (see jitterID),
// joining through via, unless the host is at its Sybil cap. It counts
// the birth and the work the Sybil acquired for the next report. Only
// the goroutine that steps the host calls it, so the cap it checks
// still holds when it appends.
func (h *Host) injectSybil(id ids.ID, via string) (int, bool) {
	if !h.CanCreateSybil() {
		return 0, false
	}
	n, recs, tasks, err := h.spawn(h.jitterID(id), via)
	if err != nil {
		reown(h.PrimaryNode(), recs, tasks)
		return 0, false
	}
	acquired := n.TaskUnits()
	h.drv.run(n)
	h.mu.Lock()
	h.sybils = append(h.sybils, n)
	h.injects++
	h.injUnits += acquired
	h.mu.Unlock()
	return int(acquired), true
}
