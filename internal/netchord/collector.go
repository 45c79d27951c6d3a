package netchord

import (
	"net"
	"sync"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/obs"
	"chordbalance/internal/stats"
	"chordbalance/internal/wire"
)

// RuntimeFactor is the paper's headline metric (§V-C): the slowest
// host's busy time divided by the ideal completion time for submitted
// units spread perfectly over the cluster's capacity. 1.0 is perfect
// balance; higher is worse. It returns 0 until enough is known
// (no capacity, no busy host, or submitted == 0).
func RuntimeFactor(s wire.Stats, submitted uint64) float64 {
	if s.Capacity == 0 || s.BusyTicks == 0 || submitted == 0 {
		return 0
	}
	ideal := (submitted + s.Capacity - 1) / s.Capacity
	if ideal == 0 {
		return 0
	}
	return float64(s.BusyTicks) / float64(ideal)
}

// collectorMetrics is the collector's trace: one metric per traced
// cluster counter, read from the summed view.
var collectorMetrics = [...]struct {
	name, unit, help string
	gauge            bool
	of               func(*wire.Stats) uint64
}{
	{"net.consumed", "tasks", "cumulative task units consumed across hosts", false, func(s *wire.Stats) uint64 { return s.Consumed }},
	{"net.reports", "msgs", "reports accepted from hosts and streaming clients", false, func(s *wire.Stats) uint64 { return s.Reports }},
	{"net.injections", "sybils", "Sybil births reported", false, func(s *wire.Stats) uint64 { return s.Injections }},
	{"net.residual", "tasks", "summed residual task units", true, func(s *wire.Stats) uint64 { return s.Residual }},
	{"net.busy_ticks", "ticks", "busy interval of the slowest host", true, func(s *wire.Stats) uint64 { return s.BusyTicks }},
	{"net.hosts", "hosts", "hosts registered", true, func(s *wire.Stats) uint64 { return s.Hosts }},
	{"net.store.acked", "writes", "durably acknowledged owner writes", false, func(s *wire.Stats) uint64 { return s.StoreAcked }},
	{"net.store.anti_rounds", "rounds", "anti-entropy passes started", false, func(s *wire.Stats) uint64 { return s.AntiEntropyRounds }},
	{"net.store.anti_repairs", "recs", "records repaired by anti-entropy", false, func(s *wire.Stats) uint64 { return s.AntiEntropyRepairs }},
	{"net.store.anti_bytes", "bytes", "value bytes moved by anti-entropy", false, func(s *wire.Stats) uint64 { return s.AntiEntropyBytes }},
	{"net.stream.chunks", "chunks", "chunks delivered to streaming viewers", false, func(s *wire.Stats) uint64 { return s.StreamChunks }},
	{"net.stream.deadline_miss", "chunks", "chunk deadline misses", false, func(s *wire.Stats) uint64 { return s.StreamDeadlineMiss }},
	{"net.stream.rebuffers", "events", "viewer rebuffer events", false, func(s *wire.Stats) uint64 { return s.StreamRebuffers }},
	{"net.stream.bytes", "bytes", "value bytes delivered to viewers", false, func(s *wire.Stats) uint64 { return s.StreamBytes }},
}

// Collector is the runtime's measurement sink: a small wire server that
// hosts and streaming clients push their cumulative counters to
// (TReport), and that anyone may ask for the cluster view (TStats),
// which is how dhtload detects workload completion and computes the
// runtime factor without global state in the data path.
//
// When constructed with a tracer, the collector doubles as the
// networked runtime's obs pipeline: every report updates per-cluster
// metrics and emits one tick record keyed by the collector's own fault
// clock, so `dhttrace`-style tooling reads networked runs the same way
// it reads simulator runs.
type Collector struct {
	cfg Config
	srv server

	mu      sync.Mutex
	last    map[ids.ID]wire.Stats // each sender's latest report
	order   []ids.ID              // first-report order, for deterministic iteration
	reports uint64

	tracer  *obs.Tracer
	set     [len(collectorMetrics)]func(int64)
	hRepair *obs.Histogram
	start   time.Time
}

// NewCollector opens the collector's listener on addr ("" = auto) and
// starts serving. tracer may be nil (no trace output).
func NewCollector(cfg Config, tr Transport, addr string, tracer *obs.Tracer) (*Collector, error) {
	cfg = cfg.WithDefaults()
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	c := &Collector{
		cfg:    cfg,
		srv:    server{ln: ln, conns: make(map[net.Conn]struct{})},
		last:   make(map[ids.ID]wire.Stats),
		tracer: tracer,
		start:  time.Now(),
	}
	if tracer != nil {
		reg := tracer.Registry()
		for i, m := range collectorMetrics {
			if m.gauge {
				c.set[i] = reg.Gauge(m.name, m.unit, m.help).SetInt
			} else {
				c.set[i] = reg.Counter(m.name, m.unit, m.help).Set
			}
		}
		c.hRepair = reg.Histogram("net.store.repair_batch", "recs",
			"records repaired per host report interval", stats.LogEdges(1<<20, 4))
		tracer.EmitMeta(obs.F{K: "source", V: "netchord-collector"})
		tracer.EmitSchema()
	}
	c.srv.wg.Add(1)
	go c.srv.acceptLoop(cfg, nil, ids.Zero, func() func(req, reply *wire.Msg) { return c.handle })
	return c, nil
}

// Addr returns the collector's listen address.
func (c *Collector) Addr() string { return c.srv.ln.Addr().String() }

// Close shuts the collector down and flushes the tracer.
func (c *Collector) Close() {
	c.srv.close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tracer != nil {
		s := c.statsLocked()
		c.tracer.Emit("done",
			obs.F{K: "hosts", V: s.Hosts},
			obs.F{K: "consumed", V: s.Consumed},
			obs.F{K: "residual", V: s.Residual},
			obs.F{K: "busy_ticks", V: s.BusyTicks},
			obs.F{K: "injections", V: s.Injections},
		)
		_ = c.tracer.Close()
		c.tracer = nil
	}
}

// Stats snapshots the cluster view.
func (c *Collector) Stats() wire.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

// statsLocked folds the senders' latest reports into the cluster view
// by the rule wire.Stats states; callers hold c.mu.
func (c *Collector) statsLocked() wire.Stats {
	sum := wire.Stats{Reports: c.reports}
	for _, id := range c.order {
		r := c.last[id]
		sum.Hosts += r.Hosts
		sum.Consumed += r.Consumed
		sum.Residual += r.Residual
		sum.BusyTicks = max(sum.BusyTicks, r.BusyTicks)
		sum.Capacity += r.Capacity
		sum.Injections += r.Injections
		sum.InjectedUnits += r.InjectedUnits
		sum.StoreAcked += r.StoreAcked
		sum.AntiEntropyRounds += r.AntiEntropyRounds
		sum.AntiEntropyRepairs += r.AntiEntropyRepairs
		sum.AntiEntropyBytes += r.AntiEntropyBytes
		sum.StreamChunks += r.StreamChunks
		sum.StreamDeadlineMiss += r.StreamDeadlineMiss
		sum.StreamRebuffers += r.StreamRebuffers
		sum.StreamBytes += r.StreamBytes
	}
	return sum
}

// handle dispatches one collector request, filling reply (see
// serveConn). A report keeps no request memory: DecodeStats copies.
func (c *Collector) handle(req, reply *wire.Msg) {
	switch req.Type {
	case wire.TPing:
		reply.Type = wire.TPong

	case wire.TReport:
		r, err := wire.DecodeStats(req.Value)
		if err != nil {
			errorMsg(reply, CodeBadRequest, err.Error())
			return
		}
		c.mu.Lock()
		prev, known := c.last[req.From.ID]
		if !known {
			c.order = append(c.order, req.From.ID)
		}
		c.last[req.From.ID] = r
		c.reports++
		// Repair-batch histogram: observe the per-interval delta, not
		// the cumulative counter, so the distribution reads "how much
		// did one report interval repair".
		if r.AntiEntropyRepairs > prev.AntiEntropyRepairs && c.hRepair != nil {
			c.hRepair.ObserveInt(int(r.AntiEntropyRepairs - prev.AntiEntropyRepairs))
		}
		c.emitLocked()
		c.mu.Unlock()
		reply.Type = wire.TAck

	case wire.TStats:
		c.mu.Lock()
		s := c.statsLocked()
		c.mu.Unlock()
		reply.Type, reply.Value = wire.TStatsOK, wire.AppendStats(reply.Value, &s)

	default:
		errorMsg(reply, CodeBadRequest, "unexpected collector message "+req.Type.String())
	}
}

// emitLocked refreshes the trace metrics and writes one tick record
// stamped with the collector's wall-clock tick; callers hold c.mu.
func (c *Collector) emitLocked() {
	if c.tracer == nil {
		return
	}
	s := c.statsLocked()
	for i, m := range collectorMetrics {
		c.set[i](int64(m.of(&s)))
	}
	c.tracer.EmitTick(int(time.Since(c.start) / c.cfg.TickEvery))
}
