package sim

// Per-tick observability for the engine (docs/OBSERVABILITY.md). When a
// tracer is attached, every tick emits one JSONL record carrying the
// workload-imbalance view the paper's figures are built from — max/mean,
// Gini, idle hosts, a log-binned host-workload histogram matching
// dhtsim's snapshot binning — plus topology, message, strategy-action,
// and fault counters. Everything here is read-only over engine state
// and consumes no randomness, so a traced run's Result is byte-identical
// to the same seed untraced (TestTracedRunMatchesUntraced); with no
// tracer attached (the nil fast path), none of this code runs at all and
// the hot loop allocates nothing extra (TestRunNilTracerZeroAlloc).

import (
	"sort"

	"chordbalance/internal/obs"
	"chordbalance/internal/stats"
)

// workloadHistMax and workloadHistBinsPerDecade define the trace
// histogram's log binning; they match the stats.NewLogHistogram(100000, 3)
// call dhtsim uses for -snapshots, so `dhttrace hist` reproduces the same
// figure shape.
const (
	workloadHistMax           = 100000
	workloadHistBinsPerDecade = 3
)

// simMetrics holds the engine's registered metric handles; nil when
// tracing is disabled.
type simMetrics struct {
	t *obs.Tracer

	// Per-tick network shape.
	aliveHosts *obs.Gauge
	idleHosts  *obs.Gauge
	vnodes     *obs.Gauge

	// Per-tick job progress.
	residual     *obs.Gauge
	pendingResub *obs.Gauge
	doneTick     *obs.Gauge
	doneTotal    *obs.Counter

	// Per-tick workload-imbalance view (the paper's core signal).
	wlMax       *obs.Gauge
	wlMean      *obs.Gauge
	wlGini      *obs.Gauge
	wlImbalance *obs.Gauge
	wlHist      *obs.Histogram

	// Cumulative topology / message accounting (mirrors MessageStats).
	joins      *obs.Counter
	leaves     *obs.Counter
	sybCreated *obs.Counter
	sybDropped *obs.Counter
	lookupMsgs *obs.Counter
	maintMsgs  *obs.Counter

	// Cumulative fault accounting (mirrors FaultStats) plus per-tick
	// fault tags.
	crashes         *obs.Counter
	crashedVNodes   *obs.Counter
	keysLost        *obs.Counter
	keysRecovered   *obs.Counter
	resubmitted     *obs.Counter
	repairMsgs      *obs.Counter
	blockedJoins    *obs.Counter
	blockedSybils   *obs.Counter
	partitionActive *obs.Gauge
	burstTick       *obs.Gauge
	crashedTick     *obs.Gauge

	// Per-strategy action counters, created on demand at the first
	// decision pass that charges the kind.
	stratMsgs map[string]*obs.Counter
	// stratKinds caches the sorted kind list; rebuilt only when the
	// strategy map grows.
	stratKinds []string

	// scratch is the per-tick workload vector reused for the Gini sort.
	scratch []float64
}

// newSimMetrics registers the engine's metric catalog on the tracer.
func newSimMetrics(t *obs.Tracer) *simMetrics {
	reg := t.Registry()
	return &simMetrics{
		t: t,

		aliveHosts: reg.Gauge("sim.hosts.alive", "hosts", "live physical hosts"),
		idleHosts:  reg.Gauge("sim.hosts.idle", "hosts", "live hosts with zero residual work"),
		vnodes:     reg.Gauge("sim.vnodes", "vnodes", "virtual nodes on the ring (primaries + Sybils + static copies)"),

		residual:     reg.Gauge("sim.tasks.residual", "tasks", "tasks still on the ring"),
		pendingResub: reg.Gauge("sim.tasks.pending_resubmit", "tasks", "crash-lost tasks awaiting re-submission"),
		doneTick:     reg.Gauge("sim.tasks.done_tick", "tasks", "tasks completed this tick"),
		doneTotal:    reg.Counter("sim.tasks.done_total", "tasks", "cumulative tasks completed"),

		wlMax:       reg.Gauge("sim.workload.max", "tasks", "largest per-host residual workload"),
		wlMean:      reg.Gauge("sim.workload.mean", "tasks", "mean per-host residual workload"),
		wlGini:      reg.Gauge("sim.workload.gini", "", "Gini coefficient of per-host residual workloads"),
		wlImbalance: reg.Gauge("sim.workload.imbalance", "", "max/mean per-host workload ratio (1 = perfectly even)"),
		wlHist: reg.Histogram("sim.workload.hosts", "tasks",
			"per-host residual workload distribution (log bins; bucket 0 = idle hosts)",
			stats.LogEdges(workloadHistMax, workloadHistBinsPerDecade)),

		joins:      reg.Counter("sim.msgs.joins", "joins", "hosts that joined via churn"),
		leaves:     reg.Counter("sim.msgs.leaves", "leaves", "hosts that left gracefully via churn"),
		sybCreated: reg.Counter("sim.msgs.sybils_created", "sybils", "Sybil identities created by strategies"),
		sybDropped: reg.Counter("sim.msgs.sybils_dropped", "sybils", "Sybil identities withdrawn by strategies"),
		lookupMsgs: reg.Counter("sim.msgs.lookup", "msgs", "O(log n) lookup messages charged for joins/Sybils/resubmits"),
		maintMsgs:  reg.Counter("sim.msgs.maintenance", "msgs", "successor-list maintenance messages"),

		crashes:         reg.Counter("sim.faults.crashes", "hosts", "crash-stop host departures"),
		crashedVNodes:   reg.Counter("sim.faults.crashed_vnodes", "vnodes", "virtual nodes taken down by crashes"),
		keysLost:        reg.Counter("sim.faults.keys_lost", "tasks", "tasks lost to unreplicated crashes"),
		keysRecovered:   reg.Counter("sim.faults.keys_recovered", "tasks", "tasks replication saved from crashes"),
		resubmitted:     reg.Counter("sim.faults.resubmitted", "tasks", "crash-lost tasks re-entered into the ring"),
		repairMsgs:      reg.Counter("sim.faults.repair_msgs", "msgs", "replica-fetch and failure-detection traffic"),
		blockedJoins:    reg.Counter("sim.faults.blocked_joins", "joins", "joins refused by an active partition"),
		blockedSybils:   reg.Counter("sim.faults.blocked_sybils", "sybils", "Sybil placements refused by an active partition"),
		partitionActive: reg.Gauge("sim.faults.partition_active", "", "1 while a partition divides the ring"),
		burstTick:       reg.Gauge("sim.faults.burst_tick", "", "1 on scheduled correlated-crash burst ticks"),
		crashedTick:     reg.Gauge("sim.faults.crashed_tick", "hosts", "hosts crashed this tick"),

		stratMsgs: make(map[string]*obs.Counter),
	}
}

// emitStart writes the trace header: the meta record describing the
// run's configuration, the metric catalog, and the tick-0 record (the
// initial workload distribution, the left panel of the paper's figures).
func (m *simMetrics) emitStart(s *Simulation) {
	cfg := s.cfg
	m.t.EmitMeta(
		obs.F{K: "source", V: "sim"},
		obs.F{K: "seed", V: cfg.Seed},
		obs.F{K: "nodes", V: cfg.Nodes},
		obs.F{K: "tasks", V: cfg.Tasks},
		obs.F{K: "strategy", V: cfg.Strategy.Name()},
		obs.F{K: "churn", V: cfg.ChurnRate},
		obs.F{K: "hetero", V: cfg.Heterogeneous},
		obs.F{K: "ideal_ticks", V: s.ideal},
		obs.F{K: "faults", V: !cfg.Faults.Zero()},
	)
	m.t.EmitSchema()
	m.observe(s, 0)
}

// emitDone writes the end-of-run summary record.
func (m *simMetrics) emitDone(res *Result) {
	m.t.Emit("done",
		obs.F{K: "ticks", V: res.Ticks},
		obs.F{K: "ideal_ticks", V: res.IdealTicks},
		obs.F{K: "runtime_factor", V: res.RuntimeFactor},
		obs.F{K: "completed", V: res.Completed},
	)
}

// observe gathers the per-tick view and emits one tick record. It runs
// after the tick's work (consume/churn/faults/strategy/maintenance), so
// the record describes the same end-of-tick state snapshot() captures.
// Only reads: no RNG draws and no key movement. A traced run settles
// every host at every consume point, so the ring's key total and every
// Workload() here are current.
func (m *simMetrics) observe(s *Simulation, done int) {
	alive := s.aliveHosts()
	m.wlHist.Reset()
	vals := m.scratch[:0]
	sum, maxW, idle := 0, 0, 0
	for _, h := range alive {
		w := h.Workload()
		sum += w
		if w > maxW {
			maxW = w
		}
		if w == 0 {
			idle++
		}
		m.wlHist.ObserveInt(w)
		vals = append(vals, float64(w))
	}
	m.scratch = vals

	m.aliveHosts.SetInt(int64(len(alive)))
	m.idleHosts.SetInt(int64(idle))
	m.vnodes.SetInt(int64(s.ring.Len()))
	m.residual.SetInt(int64(s.ring.TotalKeys()))
	m.pendingResub.SetInt(int64(s.pendingKeys()))
	m.doneTick.SetInt(int64(done))
	m.doneTotal.Add(int64(done))

	m.wlMax.SetInt(int64(maxW))
	mean := 0.0
	if len(alive) > 0 {
		mean = float64(sum) / float64(len(alive))
	}
	m.wlMean.Set(mean)
	m.wlGini.Set(gini(vals))
	if mean > 0 {
		m.wlImbalance.Set(float64(maxW) / mean)
	} else {
		m.wlImbalance.Set(0)
	}

	m.joins.Set(int64(s.msgs.Joins))
	m.leaves.Set(int64(s.msgs.Leaves))
	m.sybCreated.Set(int64(s.msgs.SybilsCreated))
	m.sybDropped.Set(int64(s.msgs.SybilsDropped))
	m.lookupMsgs.Set(int64(s.msgs.LookupMessages))
	m.maintMsgs.Set(int64(s.msgs.Maintenance))

	f := s.fstats
	m.crashes.Set(int64(f.Crashes))
	m.crashedVNodes.Set(int64(f.CrashedVNodes))
	m.keysLost.Set(int64(f.KeysLost))
	m.keysRecovered.Set(int64(f.KeysRecovered))
	m.resubmitted.Set(int64(f.Resubmitted))
	m.repairMsgs.Set(int64(f.RepairMessages))
	m.blockedJoins.Set(int64(f.BlockedJoins))
	m.blockedSybils.Set(int64(f.BlockedSybils))
	if s.finj != nil {
		m.partitionActive.SetBool(s.finj.PartitionActive())
		m.burstTick.SetBool(s.finj.BurstTick())
		m.crashedTick.SetInt(int64(len(s.victims)))
	} else {
		m.partitionActive.Set(0)
		m.burstTick.Set(0)
		m.crashedTick.Set(0)
	}

	// Per-strategy action counters. The engine's map only grows, so the
	// cached sorted kind list is rebuilt only when a new kind appears;
	// iteration then follows the sorted cache, never map order.
	if len(s.msgs.Strategy) != len(m.stratKinds) {
		kinds := m.stratKinds[:0]
		for kind := range s.msgs.Strategy {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		m.stratKinds = kinds
	}
	for _, kind := range m.stratKinds {
		c, ok := m.stratMsgs[kind]
		if !ok {
			c = m.t.Registry().Counter("sim.msgs.strategy."+kind, "msgs",
				"strategy messages charged under kind "+kind)
			m.stratMsgs[kind] = c
		}
		c.Set(int64(s.msgs.Strategy[kind]))
	}

	m.t.EmitTick(s.tick)
}

// gini computes the Gini coefficient of the values in place: vals is
// sorted ascending as a side effect (it is the caller's scratch buffer).
// 0 means perfectly even, values near 1 mean one host holds everything.
// Returns 0 for empty input or an all-zero workload.
func gini(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	var sum, weighted float64
	for i, v := range vals {
		sum += v
		weighted += float64(2*i-n+1) * v
	}
	if sum == 0 {
		return 0
	}
	return weighted / (float64(n) * sum)
}
