package netchord

import (
	"net"
	"sort"
	"sync"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/obs"
	"chordbalance/internal/wire"
)

// Progress is the collector's cluster-wide view, assembled from the
// hosts' consume reports. It is what the simulator gets for free from
// its global tick loop and what a deployment has to gather over the
// wire.
type Progress struct {
	// Hosts is how many hosts have said hello.
	Hosts int
	// Consumed is the summed cumulative units consumed.
	Consumed uint64
	// Residual is the summed residual units from each host's latest
	// report.
	Residual uint64
	// BusyTicks is the busy-interval length of the slowest host — the
	// networked analogue of the simulator's completion tick.
	BusyTicks int
	// Capacity is the summed per-tick consume capacity.
	Capacity uint64
	// Injections counts Sybil births reported, and InjectedUnits the
	// task units those Sybils acquired at birth.
	Injections int
	// InjectedUnits sums the units acquired by Sybils at birth.
	InjectedUnits uint64
	// Reports counts consume reports received.
	Reports int64
	// Acked is the summed durably acknowledged owner writes.
	Acked int64
	// AntiEntropyRounds is the summed anti-entropy passes started.
	AntiEntropyRounds int64
	// AntiEntropyRepairs is the summed records pushed or pulled by
	// anti-entropy reconciliation.
	AntiEntropyRepairs int64
	// AntiEntropyBytes is the summed value bytes anti-entropy moved.
	AntiEntropyBytes int64
	// StreamChunks is the summed chunks delivered to streaming viewers
	// (TStreamReport), and the Stream* fields below its companions. A
	// streaming client is not a host: these aggregate over registered
	// clients, keyed by their synthetic identities.
	StreamChunks uint64
	// StreamDeadlineMiss is the summed chunk deadline misses.
	StreamDeadlineMiss uint64
	// StreamRebuffers is the summed viewer rebuffer events.
	StreamRebuffers uint64
	// StreamBytes is the summed value bytes delivered to viewers.
	StreamBytes uint64
}

// Stats packs the progress view into the wire blob TStatsOK carries.
func (p Progress) Stats() wire.Stats {
	return wire.Stats{
		Hosts:              uint64(p.Hosts),
		Consumed:           p.Consumed,
		Residual:           p.Residual,
		BusyTicks:          uint64(p.BusyTicks),
		Capacity:           p.Capacity,
		Injections:         uint64(p.Injections),
		InjectedUnits:      p.InjectedUnits,
		Reports:            uint64(p.Reports),
		StoreAcked:         uint64(p.Acked),
		AntiEntropyRounds:  uint64(p.AntiEntropyRounds),
		AntiEntropyRepairs: uint64(p.AntiEntropyRepairs),
		AntiEntropyBytes:   uint64(p.AntiEntropyBytes),
		StreamChunks:       p.StreamChunks,
		StreamDeadlineMiss: p.StreamDeadlineMiss,
		StreamRebuffers:    p.StreamRebuffers,
		StreamBytes:        p.StreamBytes,
	}
}

// progressFromStats is the inverse of Progress.Stats, for FetchStats.
func progressFromStats(s wire.Stats) Progress {
	return Progress{
		Hosts:              int(s.Hosts),
		Consumed:           s.Consumed,
		Residual:           s.Residual,
		BusyTicks:          int(s.BusyTicks),
		Capacity:           s.Capacity,
		Injections:         int(s.Injections),
		InjectedUnits:      s.InjectedUnits,
		Reports:            int64(s.Reports),
		Acked:              int64(s.StoreAcked),
		AntiEntropyRounds:  int64(s.AntiEntropyRounds),
		AntiEntropyRepairs: int64(s.AntiEntropyRepairs),
		AntiEntropyBytes:   int64(s.AntiEntropyBytes),
		StreamChunks:       s.StreamChunks,
		StreamDeadlineMiss: s.StreamDeadlineMiss,
		StreamRebuffers:    s.StreamRebuffers,
		StreamBytes:        s.StreamBytes,
	}
}

// RuntimeFactor is the paper's headline metric (§V-C): the slowest
// host's busy time divided by the ideal completion time for submitted
// units spread perfectly over the cluster's capacity. 1.0 is perfect
// balance; higher is worse. It returns 0 until enough is known
// (no capacity, no busy host, or submitted == 0).
func (p Progress) RuntimeFactor(submitted uint64) float64 {
	if p.Capacity == 0 || p.BusyTicks == 0 || submitted == 0 {
		return 0
	}
	ideal := (submitted + p.Capacity - 1) / p.Capacity
	if ideal == 0 {
		return 0
	}
	return float64(p.BusyTicks) / float64(ideal)
}

// hostRecord is the collector's per-host state.
type hostRecord struct {
	capacity  uint64
	consumed  uint64
	residual  uint64
	firstBusy int
	lastBusy  int

	// Storage report state (TStoreReport): cumulative per host.
	acked      int64
	antiRounds int64
	antiReps   int64
	antiBytes  int64
}

// streamRecord is the collector's per-streaming-client state: the last
// cumulative TStreamReport from one load generator. Clients are keyed
// by the synthetic identity their reports carry, so several dhtload
// -stream processes aggregate without double counting.
type streamRecord struct {
	chunks    uint64
	misses    uint64
	rebuffers uint64
	bytes     uint64
}

// Collector is the runtime's measurement sink: a small wire server that
// hosts register with (THello), stream consume reports to
// (TConsumeReport), and announce Sybil births to (TInject). Anyone may
// ask it for cluster-wide progress (TProgress), which is how dhtload
// detects workload completion and computes the runtime factor without
// global state in the data path.
//
// When constructed with a tracer, the collector doubles as the
// networked runtime's obs pipeline: every report updates per-cluster
// metrics and emits one tick record keyed by the collector's own fault
// clock, so `dhttrace`-style tooling reads networked runs the same way
// it reads simulator runs.
type Collector struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	hosts    map[ids.ID]*hostRecord
	order    []ids.ID // hello order, for deterministic iteration
	streams  map[ids.ID]*streamRecord
	strOrder []ids.ID
	injects  int
	units    uint64
	reports  int64

	tracer     *obs.Tracer
	mConsumed  *obs.Counter
	mReports   *obs.Counter
	mInjects   *obs.Counter
	mResidual  *obs.Gauge
	mBusyTicks *obs.Gauge
	mHosts     *obs.Gauge
	mAcked     *obs.Counter
	mAntiRound *obs.Counter
	mAntiReps  *obs.Counter
	mAntiBytes *obs.Counter
	hRepair    *obs.Histogram
	mStrChunks *obs.Counter
	mStrMiss   *obs.Counter
	mStrRebuf  *obs.Counter
	mStrBytes  *obs.Counter
	start      time.Time

	conns     map[net.Conn]struct{}
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
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
		cfg:     cfg,
		ln:      ln,
		hosts:   make(map[ids.ID]*hostRecord),
		streams: make(map[ids.ID]*streamRecord),
		tracer:  tracer,
		start:   time.Now(),
		conns:   make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	if tracer != nil {
		reg := tracer.Registry()
		c.mConsumed = reg.Counter("net.consumed", "tasks", "cumulative task units consumed across hosts")
		c.mReports = reg.Counter("net.reports", "msgs", "consume reports received")
		c.mInjects = reg.Counter("net.injections", "sybils", "Sybil births reported")
		c.mResidual = reg.Gauge("net.residual", "tasks", "summed residual task units")
		c.mBusyTicks = reg.Gauge("net.busy_ticks", "ticks", "busy interval of the slowest host")
		c.mHosts = reg.Gauge("net.hosts", "hosts", "hosts registered")
		c.mAcked = reg.Counter("net.store.acked", "writes", "durably acknowledged owner writes")
		c.mAntiRound = reg.Counter("net.store.anti_rounds", "rounds", "anti-entropy passes started")
		c.mAntiReps = reg.Counter("net.store.anti_repairs", "recs", "records repaired by anti-entropy")
		c.mAntiBytes = reg.Counter("net.store.anti_bytes", "bytes", "value bytes moved by anti-entropy")
		c.hRepair = reg.Histogram("net.store.repair_batch", "recs",
			"records repaired per store report interval", obs.LogEdges(1<<20, 4))
		c.mStrChunks = reg.Counter("net.stream.chunks", "chunks", "chunks delivered to streaming viewers")
		c.mStrMiss = reg.Counter("net.stream.deadline_miss", "chunks", "chunk deadline misses")
		c.mStrRebuf = reg.Counter("net.stream.rebuffers", "events", "viewer rebuffer events")
		c.mStrBytes = reg.Counter("net.stream.bytes", "bytes", "value bytes delivered to viewers")
		tracer.EmitMeta(obs.F{K: "source", V: "netchord-collector"})
		tracer.EmitSchema()
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the collector's listen address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// Close shuts the collector down and flushes the tracer.
func (c *Collector) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		_ = c.ln.Close()
		c.mu.Lock()
		for conn := range c.conns {
			_ = conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tracer != nil {
		p := c.progressLocked()
		c.tracer.Emit("done",
			obs.F{K: "hosts", V: p.Hosts},
			obs.F{K: "consumed", V: p.Consumed},
			obs.F{K: "residual", V: p.Residual},
			obs.F{K: "busy_ticks", V: p.BusyTicks},
			obs.F{K: "injections", V: p.Injections},
		)
		_ = c.tracer.Close()
		c.tracer = nil
	}
}

// Progress snapshots the cluster-wide view.
func (c *Collector) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked()
}

// progressLocked assembles Progress; callers hold c.mu.
func (c *Collector) progressLocked() Progress {
	p := Progress{
		Hosts:         len(c.hosts),
		Injections:    c.injects,
		InjectedUnits: c.units,
		Reports:       c.reports,
	}
	for _, id := range c.order {
		r := c.hosts[id]
		p.Consumed += r.consumed
		p.Residual += r.residual
		p.Capacity += r.capacity
		p.Acked += r.acked
		p.AntiEntropyRounds += r.antiRounds
		p.AntiEntropyRepairs += r.antiReps
		p.AntiEntropyBytes += r.antiBytes
		if r.consumed > 0 {
			if busy := r.lastBusy - r.firstBusy + 1; busy > p.BusyTicks {
				p.BusyTicks = busy
			}
		}
	}
	for _, id := range c.strOrder {
		s := c.streams[id]
		p.StreamChunks += s.chunks
		p.StreamDeadlineMiss += s.misses
		p.StreamRebuffers += s.rebuffers
		p.StreamBytes += s.bytes
	}
	return p
}

// acceptLoop admits connections until the listener closes.
func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		select {
		case <-c.closed:
			// Accepted while Close runs: Close would never close it.
			c.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			serveConn(c.cfg, conn, conn, c.handle)
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
		}()
	}
}

// handle dispatches one collector request.
func (c *Collector) handle(req *wire.Msg) *wire.Msg {
	switch req.Type {
	case wire.TPing:
		return &wire.Msg{Type: wire.TPong}

	case wire.THello:
		c.mu.Lock()
		if _, known := c.hosts[req.From.ID]; !known {
			c.hosts[req.From.ID] = &hostRecord{}
			c.order = append(c.order, req.From.ID)
		}
		c.hosts[req.From.ID].capacity = req.A
		if c.mHosts != nil {
			c.mHosts.SetInt(int64(len(c.hosts)))
		}
		c.mu.Unlock()
		return &wire.Msg{Type: wire.TAck}

	case wire.TConsumeReport:
		c.mu.Lock()
		r := c.hosts[req.From.ID]
		if r == nil {
			r = &hostRecord{}
			c.hosts[req.From.ID] = r
			c.order = append(c.order, req.From.ID)
		}
		r.consumed = req.A
		r.residual = req.B
		r.firstBusy = int(req.C)
		r.lastBusy = int(req.D)
		c.reports++
		c.emitLocked()
		c.mu.Unlock()
		return &wire.Msg{Type: wire.TAck}

	case wire.TStoreReport:
		c.mu.Lock()
		r := c.hosts[req.From.ID]
		if r == nil {
			r = &hostRecord{}
			c.hosts[req.From.ID] = r
			c.order = append(c.order, req.From.ID)
		}
		// Repair-batch histogram: observe the per-interval delta, not
		// the cumulative counter, so the distribution reads "how much
		// did one report interval repair".
		if delta := int64(req.C) - r.antiReps; delta > 0 && c.hRepair != nil {
			c.hRepair.ObserveInt(int(delta))
		}
		r.acked = int64(req.A)
		r.antiRounds = int64(req.B)
		r.antiReps = int64(req.C)
		r.antiBytes = int64(req.D)
		c.emitLocked()
		c.mu.Unlock()
		return &wire.Msg{Type: wire.TAck}

	case wire.TStreamReport:
		c.mu.Lock()
		s := c.streams[req.From.ID]
		if s == nil {
			s = &streamRecord{}
			c.streams[req.From.ID] = s
			c.strOrder = append(c.strOrder, req.From.ID)
		}
		s.chunks = req.A
		s.misses = req.B
		s.rebuffers = req.C
		s.bytes = req.D
		c.emitLocked()
		c.mu.Unlock()
		return &wire.Msg{Type: wire.TAck}

	case wire.TStats:
		c.mu.Lock()
		s := c.progressLocked().Stats()
		c.mu.Unlock()
		return &wire.Msg{Type: wire.TStatsOK, Value: wire.AppendStats(nil, &s)}

	case wire.TInject:
		c.mu.Lock()
		c.injects++
		c.units += req.A
		c.emitLocked()
		c.mu.Unlock()
		return &wire.Msg{Type: wire.TAck}

	case wire.TProgress:
		c.mu.Lock()
		p := c.progressLocked()
		c.mu.Unlock()
		return &wire.Msg{
			Type: wire.TProgressOK,
			A:    p.Consumed,
			B:    p.Residual,
			C:    uint64(p.BusyTicks),
			D:    p.Capacity,
		}

	default:
		return errorMsg(CodeBadRequest, "unexpected collector message "+req.Type.String())
	}
}

// emitLocked refreshes the trace metrics and writes one tick record
// stamped with the collector's wall-clock tick; callers hold c.mu.
func (c *Collector) emitLocked() {
	if c.tracer == nil {
		return
	}
	p := c.progressLocked()
	c.mConsumed.Set(int64(p.Consumed))
	c.mReports.Set(p.Reports)
	c.mInjects.Set(int64(p.Injections))
	c.mResidual.SetInt(int64(p.Residual))
	c.mBusyTicks.SetInt(int64(p.BusyTicks))
	c.mHosts.SetInt(int64(p.Hosts))
	c.mAcked.Set(p.Acked)
	c.mAntiRound.Set(p.AntiEntropyRounds)
	c.mAntiReps.Set(p.AntiEntropyRepairs)
	c.mAntiBytes.Set(p.AntiEntropyBytes)
	c.mStrChunks.Set(int64(p.StreamChunks))
	c.mStrMiss.Set(int64(p.StreamDeadlineMiss))
	c.mStrRebuf.Set(int64(p.StreamRebuffers))
	c.mStrBytes.Set(int64(p.StreamBytes))
	c.tracer.EmitTick(int(time.Since(c.start) / c.cfg.TickEvery))
}

// HostIDs returns the registered host IDs in ascending order (a stable
// order for summaries; hello order is arrival-dependent).
func (c *Collector) HostIDs() []ids.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]ids.ID(nil), c.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
