package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/netchord"
	"chordbalance/internal/store"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// The networked workloads' fixed shape. Two clients because the sizing
// box has two processors: one process generates the load and hosts the
// ring, so more generators would only measure their own contention.
const (
	netHosts    = 12
	netReplicas = 3
	netClients  = 2
	poolKeys    = 8192
	valueLen    = 64
	// sliceLen is how long the clients run between two calibration
	// kernels. It is well under the seconds-long dwell time of the
	// host's speed levels, so one scale factor fits a whole slice.
	sliceLen = 20 * time.Millisecond
	// settle is one full fix-fingers cycle (160 fingers, one per
	// stabilize round of 4 ticks of 5 ms) after convergence; the traced
	// run measures the ring's idle CPU over it.
	settle = 3200 * time.Millisecond
	// discard is the measured phase's unrecorded lead-in.
	discard = 2 * time.Second
	// ringSeed fixes the twelve hosts' identifiers and the pool's keys.
	// The preloaded ring is the system under test; -seed varies what is
	// sent to it (values, which key each request names, in what order).
	// With only twelve random identifiers the arcs — and with them hops,
	// RPCs and allocations per op — differ by 6-7 % from one ring to the
	// next, and under Zipf the few hottest keys' owners move that by
	// 13 %: differences between inputs that would be read as noise.
	ringSeed = 0x51A7E
)

// netOp selects the request a networked workload issues.
type netOp int

const (
	opPut netOp = iota
	opRead
)

// netWorkload describes a networked workload.
type netWorkload struct {
	name string
	op   netOp
}

// netWorkloads returns the two networked workloads.
func netWorkloads() []netWorkload {
	return []netWorkload{
		{name: "net-put-r3", op: opPut},
		{name: "net-read-zipf", op: opRead},
	}
}

// sliceCmd tells a worker what to do until the deadline.
type sliceCmd struct {
	deadline time.Time
	op       netOp
	// preload makes the worker put its share of the pool in order, once.
	preload bool
	traced  bool
}

// worker is one closed-loop client: it issues its next request only
// after the previous one completed.
type worker struct {
	index  int
	client *netchord.Client
	rng    *xrand.Rand
	zipf   *keys.Zipf
	pool   []ids.ID
	values [][]byte
	tr     *tracer

	start chan sliceCmd
	done  chan int

	// next is the preload cursor; acked the highest version each pool
	// key was acknowledged at through this worker.
	next  int
	acked []uint64
	// lat holds every measured op's latency in nanoseconds; hops the
	// lookup hop count of every traced read.
	lat     []uint32
	hops    []float64
	scratch []byte
	opSeq   int
	failed  int
	lastErr error
}

// loop serves slice commands until start is closed.
func (w *worker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range w.start {
		n := 0
		for time.Now().Before(cmd.deadline) {
			if cmd.preload {
				if w.next >= len(w.pool) {
					break
				}
				w.put(w.next, false, true)
				w.next += netClients
			} else if cmd.op == opPut {
				w.put(w.rng.Intn(len(w.pool)), cmd.traced, false)
			} else {
				w.read(w.zipf.Rank(w.rng)-1, cmd.traced)
			}
			n++
		}
		w.done <- n
	}
}

// fail counts a failed op and keeps the first cause.
func (w *worker) fail(err error) {
	w.failed++
	if w.lastErr == nil {
		w.lastErr = err
	}
}

// put writes pool key i — its preload value when original is set, else
// a fresh one — and records the version the write was acknowledged at.
func (w *worker) put(i int, traced, original bool) {
	var tr *tracer
	if traced {
		tr = w.tr
	}
	w.opSeq++
	copy(w.scratch, w.values[i])
	if !original {
		binary.LittleEndian.PutUint64(w.scratch, uint64(w.opSeq)<<8|uint64(w.index))
	}
	root := tr.begin("op", -1, w.opSeq)
	t0 := time.Now()
	id := tr.begin("client.putver", root, w.opSeq)
	ver, err := w.client.PutVer(w.pool[i], w.scratch)
	tr.end(id)
	w.lat = append(w.lat, uint32(time.Since(t0)))
	tr.end(root)
	if err != nil {
		w.fail(fmt.Errorf("put %s: %w", w.pool[i].Short(), err))
		return
	}
	if ver > w.acked[i] {
		w.acked[i] = ver
	}
}

// read fetches pool key i and compares every byte. A traced read is
// issued as its two public halves, lookup then fetch — the same wire
// traffic as Client.Get — so each half gets a span.
func (w *worker) read(i int, traced bool) {
	w.opSeq++
	var got []byte
	var err error
	if traced {
		tr := w.tr
		root := tr.begin("op", -1, w.opSeq)
		t0 := time.Now()
		id := tr.begin("client.lookup", root, w.opSeq)
		owner, hops, lerr := w.client.Lookup(w.pool[i])
		tr.end(id)
		err = lerr
		if err == nil {
			id = tr.begin("client.getfrom", root, w.opSeq)
			got, _, err = w.client.GetFrom(owner, w.pool[i])
			tr.end(id)
			w.hops = append(w.hops, float64(hops))
		}
		w.lat = append(w.lat, uint32(time.Since(t0)))
		tr.end(root)
	} else {
		t0 := time.Now()
		got, err = w.client.Get(w.pool[i])
		w.lat = append(w.lat, uint32(time.Since(t0)))
	}
	if err != nil {
		w.fail(fmt.Errorf("get %s: %w", w.pool[i].Short(), err))
		return
	}
	if !bytes.Equal(got, w.values[i]) {
		w.fail(fmt.Errorf("get %s: value differs from what was stored", w.pool[i].Short()))
	}
}

// sliceRec is one slice of a phase: the calibration mark that opened
// it (mark+1 closed it), the ops completed, the CPU the process spent,
// and where each worker's latencies for it start.
type sliceRec struct {
	mark   int
	n      int
	cpu    time.Duration
	traced bool
	latAt  [netClients]int
}

// netEngine drives the workers slice by slice.
type netEngine struct {
	cal     *calibrator
	workers []*worker
	wg      sync.WaitGroup
}

// phase runs slices until total has elapsed — or, for a preload, until
// every worker has stored its share. alternate traces every other slice.
func (e *netEngine) phase(cmd sliceCmd, total time.Duration, alternate bool) []sliceRec {
	var out []sliceRec
	end := time.Now().Add(total)
	open := e.cal.mark()
	for i := 0; ; i++ {
		if cmd.preload {
			left := false
			for _, w := range e.workers {
				left = left || w.next < len(w.pool)
			}
			if !left {
				break
			}
		} else if !time.Now().Before(end) {
			break
		}
		rec := sliceRec{mark: open, traced: alternate && i%2 == 1}
		for j, w := range e.workers {
			rec.latAt[j] = len(w.lat)
		}
		c := cmd
		c.traced = rec.traced
		c.deadline = time.Now().Add(sliceLen)
		cpu0 := cpuTime()
		for _, w := range e.workers {
			w.start <- c
		}
		for _, w := range e.workers {
			rec.n += <-w.done
		}
		rec.cpu = cpuTime() - cpu0
		open = e.cal.mark()
		out = append(out, rec)
	}
	return out
}

// stop ends the worker's loop once its current slice is done.
func (w *worker) stop() { close(w.start) }

// stop ends the workers, waits for them and closes their clients.
func (e *netEngine) stop() {
	for _, w := range e.workers {
		w.stop()
	}
	e.wg.Wait()
	for _, w := range e.workers {
		w.client.Close()
	}
}

// netSnap is the ring's and the clients' public counters at an instant.
type netSnap struct {
	served      [wire.TypeCount]int64
	servedTotal int64
	stabilizes  int64
	replicaErrs int64
	aeBytes     int64
	rpc         netchord.RPCStats
	clientCalls int64
	st          store.Stats
}

func addRPC(a *netchord.RPCStats, b netchord.RPCStats) {
	a.Calls += b.Calls
	a.Retries += b.Retries
	a.Timeouts += b.Timeouts
	a.Reconnects += b.Reconnects
}

// snapshot sums the counters over every node and client.
func snapshot(c *netchord.Cluster, clients []*netchord.Client) netSnap {
	var s netSnap
	for _, n := range c.Nodes() {
		ns := n.Stats()
		for t, v := range ns.Served {
			s.served[t] += v
			s.servedTotal += v
		}
		s.stabilizes += ns.Stabilizes
		s.replicaErrs += ns.ReplicaErrs
		s.aeBytes += ns.AntiEntropyBytes
		addRPC(&s.rpc, ns.RPC)
		s.st.Keys += ns.Store.Keys
		s.st.TotalBytes += ns.Store.TotalBytes
		s.st.DeadBytes += ns.Store.DeadBytes
		s.st.Appends += ns.Store.Appends
		s.st.AppendBytes += ns.Store.AppendBytes
		s.st.Syncs += ns.Store.Syncs
		s.st.SyncElided += ns.Store.SyncElided
		s.st.Gets += ns.Store.Gets
		s.st.Compactions += ns.Store.Compactions
	}
	for _, cl := range clients {
		cs := cl.Stats()
		s.clientCalls += cs.Calls
		addRPC(&s.rpc, cs)
	}
	return s
}

// netSizes are a run's durations and pool size.
type netSizes struct {
	measure, lead, settle time.Duration
	keys                  int
}

// runNet runs one networked workload and fills an outcome.
func runNet(w netWorkload, opt options) (out *outcome, err error) {
	sz := netSizes{measure: time.Duration(opt.seconds) * time.Second, lead: discard, settle: settle, keys: poolKeys}
	if opt.traced {
		sz.measure /= 3
	}
	if opt.short {
		sz = netSizes{measure: 400 * time.Millisecond, lead: 100 * time.Millisecond, settle: 200 * time.Millisecond, keys: 512}
	}
	dataDir := scratchPath(fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("data directory: %w", err)
	}
	defer func() {
		if rerr := os.RemoveAll(dataDir); rerr != nil && err == nil {
			err = fmt.Errorf("data directory: %w", rerr)
		}
	}()
	cal, err := newCalibrator(kernelNet, int((sz.measure+sz.lead)/sliceLen)*2+4096)
	if err != nil {
		return nil, err
	}
	defer cal.close()

	out, eng, err := measureNet(w, opt, sz, dataDir, cal)
	if err != nil {
		return nil, err
	}
	pl := out.perLayer
	if opt.traced {
		// The ring is closed by now, so the drills time the layers alone.
		drillTr := newTracer((netClients+1)<<24, 64)
		if err := netDrills(dataDir, eng.workers[0].pool, cal, drillTr, pl); err != nil {
			return nil, err
		}
		var hops []float64
		tracers := make([]*tracer, 0, netClients+1)
		for _, wk := range eng.workers {
			tracers = append(tracers, wk.tr)
			hops = append(hops, wk.hops...)
		}
		out.spans = mergeSpans(append(tracers, drillTr)...)
		pl["netchord.lookup_p50_us"] = median(spanDurations(out.spans, "client.lookup"))
		pl["netchord.getfrom_p50_us"] = median(spanDurations(out.spans, "client.getfrom"))
		pl["netchord.hops_p50"] = median(hops)
	}
	pl["host.calib_us"] = cal.medianMicros()
	pl["proc.peak_rss_mb"] = peakRSSMB()
	return out, cal.err
}

// startWorkers makes the pool's values from the seed and starts one
// closed-loop client per worker against the ring.
func startWorkers(cfg netchord.Config, cluster *netchord.Cluster, cal *calibrator, opt options, sz netSizes) *netEngine {
	pool := keys.NewGenerator(xrand.SplitSeed(ringSeed, 0x9001)).NodeIDs(sz.keys) // distinct identifiers
	vrng := xrand.New(xrand.SplitSeed(opt.seed, 0x9002))
	values := make([][]byte, sz.keys)
	for i := range values {
		values[i] = make([]byte, valueLen)
		for j := 0; j < valueLen; j += 8 {
			binary.LittleEndian.PutUint64(values[i][j:], vrng.Uint64())
		}
	}
	eng := &netEngine{cal: cal}
	opsHint := int(sz.measure.Seconds()+sz.lead.Seconds()+4)*12000 + sz.keys
	for i := 0; i < netClients; i++ {
		var tr *tracer
		if opt.traced {
			tr = newTracer((i+1)<<24, opsHint)
		}
		wk := &worker{
			index: i, tr: tr,
			client: netchord.NewClient(cfg, netchord.TCP{}, cluster.SeedAddr(), xrand.SplitSeed(opt.seed, uint64(0x9100+i))),
			rng:    xrand.New(xrand.SplitSeed(opt.seed, uint64(0x9200+i))),
			zipf:   keys.NewZipf(sz.keys, 1.0), pool: pool, values: values,
			start: make(chan sliceCmd), done: make(chan int),
			next: i, acked: make([]uint64, sz.keys),
			lat: make([]uint32, 0, opsHint), scratch: make([]byte, valueLen),
		}
		eng.workers = append(eng.workers, wk)
		eng.wg.Add(1)
		go wk.loop(&eng.wg)
	}
	return eng
}

// measureNet boots the ring, preloads it, runs the measured phase and
// checks the outputs; the ring and the clients are closed when it
// returns.
func measureNet(w netWorkload, opt options, sz netSizes, dataDir string, cal *calibrator) (*outcome, *netEngine, error) {
	out := newOutcome()

	// Set-up: boot and converge (timer-bound, so taken raw), then the
	// preload (CPU-bound, so sliced and scaled like the measured phase).
	cfg := netchord.Config{Replicas: netReplicas, DataDir: dataDir, NoSync: true}
	bootStart := time.Now()
	cluster, err := netchord.NewCluster(cfg, netchord.TCP{}, nil, netHosts, netchord.StrategyNone, ringSeed, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	defer cluster.Close()
	if !cluster.AwaitConverged(30 * time.Second) {
		return nil, nil, fmt.Errorf("boot: ring of %d hosts did not converge in 30 s", netHosts)
	}
	boot := time.Since(bootStart)
	eng := startWorkers(cfg, cluster, cal, opt, sz)
	defer eng.stop()
	clients := make([]*netchord.Client, len(eng.workers))
	for i, wk := range eng.workers {
		clients[i] = wk.client
	}

	pre := eng.phase(sliceCmd{op: opPut, preload: true}, 0, false)
	preRaw, preNorm := phaseTime(cal, pre)
	setupLead := bootStart.Sub(processStart)

	// One fix-fingers cycle with no client attached: the ring's idle CPU.
	idleCores := idleFor(sz.settle)
	wantKeys := sz.keys * netReplicas
	keysBefore := awaitKeys(cluster, wantKeys)

	// Lead-in, then the measured phase.
	cmd := sliceCmd{op: w.op}
	eng.phase(cmd, sz.lead, false)
	for _, wk := range eng.workers {
		wk.lat = wk.lat[:0]
		wk.hops = wk.hops[:0]
	}
	snap0 := snapshot(cluster, clients)
	allocs0 := readAllocs()
	phaseStart := time.Now()
	slices := eng.phase(cmd, sz.measure, opt.traced)
	elapsed := time.Since(phaseStart)
	allocs := readAllocs().sub(allocs0)
	snap1 := snapshot(cluster, clients)

	// Output checks: every op's own result, then for writes a sweep of
	// the pool — a key reading below its last acknowledged version is a
	// lost acknowledged write — and the live key count on both sides.
	ops := 0
	for _, s := range slices {
		ops += s.n
	}
	if ops == 0 {
		return nil, nil, fmt.Errorf("%s: no op completed in the measured phase", w.name)
	}
	for _, wk := range eng.workers {
		out.attempted += wk.opSeq // preload and lead-in ops count too
		out.failed += wk.failed
		if wk.lastErr != nil {
			out.note("client %d: %d failed ops, first: %v", wk.index, wk.failed, wk.lastErr)
		}
	}
	if w.op == opPut {
		out.attempted += sz.keys
		for i, k := range eng.workers[0].pool {
			want := uint64(0)
			for _, wk := range eng.workers {
				want = max(want, wk.acked[i])
			}
			_, ver, gerr := clients[0].GetVer(k)
			if gerr != nil || ver < want {
				out.failed++
				out.note("sweep: key %s reads version %d (err %v), acknowledged at %d", k.Short(), ver, gerr, want)
			}
		}
	}
	if keysAfter := awaitKeys(cluster, wantKeys); keysBefore != wantKeys || keysAfter != wantKeys {
		out.correct = false
		out.note("live keys: %d before and %d after the measured phase, want %d (pool %d x %d replicas)", keysBefore, keysAfter, wantKeys, sz.keys, netReplicas)
	} else {
		out.note("live keys: %d before and after the measured phase (pool %d x %d replicas)", wantKeys, sz.keys, netReplicas)
	}

	// End-to-end metrics, on the reference host.
	rates, rawRates := sliceRates(cal, slices, false)
	lat, sliceP50, rawSliceP50 := latencies(cal, slices, eng.workers)
	out.samples = len(lat)
	out.endToEnd["setup_s"] = (setupLead + boot + preNorm).Seconds()
	out.endToEnd["ops_per_s"] = median(rates)
	out.endToEnd["op_p50_us"] = median(sliceP50)
	out.endToEnd["allocs_per_op"] = float64(allocs.mallocs) / float64(ops)
	out.endToEnd["alloc_bytes_per_op"] = float64(allocs.bytes) / float64(ops)
	out.note("latency deciles (us): %.1f %.1f %.1f %.1f [%.1f] %.1f %.1f %.1f %.1f", percentile(lat, 0.1), percentile(lat, 0.2),
		percentile(lat, 0.3), percentile(lat, 0.4), percentile(lat, 0.5), percentile(lat, 0.6), percentile(lat, 0.7), percentile(lat, 0.8), percentile(lat, 0.9))
	if fifth := len(rates) / 5; fifth > 0 {
		first, last := median(rates[:fifth]), median(rates[len(rates)-fifth:])
		out.note("stationarity: median rate of the first fifth of %d slices %.0f/s, of the last fifth %.0f/s (%+.1f %%)",
			len(rates), first, last, 100*(last-first)/first)
	}

	pl := out.perLayer
	pl["raw.ops_per_s"] = median(rawRates)
	pl["raw.op_p50_us"] = median(rawSliceP50)
	pl["raw.setup_s"] = (setupLead + boot + preRaw).Seconds()
	pl["client.op_p90_us"] = percentile(lat, 0.90)
	pl["client.op_p99_us"] = percentile(lat, 0.99)
	var cpuNorm time.Duration
	for _, s := range slices {
		cpuNorm += time.Duration(float64(s.cpu) * cal.scale(s.mark))
	}
	pl["proc.cpu_us_per_op"] = float64(cpuNorm) / 1e3 / float64(ops)
	pl["netchord.idle_cpu_cores"] = idleCores
	pl["netchord.boot_s"] = boot.Seconds()
	pl["netchord.preload_s"] = preNorm.Seconds()
	netCounterMetrics(w, snap0, snap1, ops, elapsed, pl)
	if traced, _ := sliceRates(cal, slices, true); len(traced) > 0 && len(rates) > 0 {
		pl["trace.overhead_frac"] = 1 - median(traced)/median(rates)
	}
	return out, eng, nil
}

// awaitKeys returns the live key count summed over the ring's stores,
// giving anti-entropy up to five seconds to restore a replica whose
// push failed (netchord.replica_errs says whether one did).
func awaitKeys(c *netchord.Cluster, want int) int {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		got := 0
		for _, n := range c.Nodes() {
			got += n.KeyCount()
		}
		if got == want || time.Now().After(deadline) {
			return got
		}
	}
}

// phaseTime sums a phase's slices, raw and on the reference host.
func phaseTime(cal *calibrator, slices []sliceRec) (raw, norm time.Duration) {
	for _, s := range slices {
		r, n := cal.between(s.mark, s.mark+1)
		raw += r
		norm += n
	}
	return raw, norm
}

// sliceRates returns each slice's completion rate in ops per second —
// on the reference host and raw — for the traced or the untraced slices.
func sliceRates(cal *calibrator, slices []sliceRec, traced bool) (norm, raw []float64) {
	for _, s := range slices {
		if s.traced != traced || s.n == 0 {
			continue
		}
		r, n := cal.between(s.mark, s.mark+1)
		norm = append(norm, float64(s.n)/n.Seconds())
		raw = append(raw, float64(s.n)/r.Seconds())
	}
	return norm, raw
}

// latencies returns every untraced op's latency in microseconds on the
// reference host, sorted, and each untraced slice's median latency, on
// the reference host and raw. The run's median latency is taken over
// the slice medians: an episode of interference from the host hits
// whole slices, and a median over slices sets those aside where a
// median over pooled ops would shift with their share.
func latencies(cal *calibrator, slices []sliceRec, workers []*worker) (pooled, sliceP50, rawSliceP50 []float64) {
	var one []float64
	for i, s := range slices {
		if s.traced {
			continue
		}
		scale := cal.scale(s.mark)
		one = one[:0]
		for j, wk := range workers {
			to := len(wk.lat)
			if i+1 < len(slices) {
				to = slices[i+1].latAt[j]
			}
			for _, ns := range wk.lat[s.latAt[j]:to] {
				one = append(one, float64(ns)/1e3)
			}
		}
		if len(one) == 0 {
			continue
		}
		sort.Float64s(one)
		p50 := percentile(one, 0.5)
		rawSliceP50 = append(rawSliceP50, p50)
		sliceP50 = append(sliceP50, p50*scale)
		for _, us := range one {
			pooled = append(pooled, us*scale)
		}
	}
	sort.Float64s(pooled)
	return pooled, sliceP50, rawSliceP50
}

// netCounterMetrics turns the counter deltas over the measured phase
// into the netchord.* and store.* per-layer metrics.
func netCounterMetrics(w netWorkload, a, b netSnap, ops int, elapsed time.Duration, pl map[string]float64) {
	n, secs := float64(ops), elapsed.Seconds()
	served := func(t wire.Type) float64 { return float64(b.served[t] - a.served[t]) }
	pl["netchord.rpcs_per_op"] = float64(b.clientCalls-a.clientCalls) / n
	pl["netchord.find_successor_per_op"] = served(wire.TFindSuccessor) / n
	pl["netchord.replicate_per_op"] = served(wire.TReplicate) / n
	pl["netchord.served_per_op"] = float64(b.servedTotal-a.servedTotal) / n
	pl["netchord.sync_digest_per_s"] = served(wire.TSyncDigest) / secs
	pl["netchord.stabilize_per_s"] = float64(b.stabilizes-a.stabilizes) / secs
	pl["netchord.antientropy_bytes_per_s"] = float64(b.aeBytes-a.aeBytes) / secs
	pl["netchord.retries"] = float64(b.rpc.Retries - a.rpc.Retries)
	pl["netchord.timeouts"] = float64(b.rpc.Timeouts - a.rpc.Timeouts)
	pl["netchord.reconnects"] = float64(b.rpc.Reconnects - a.rpc.Reconnects)
	pl["netchord.replica_errs"] = float64(b.replicaErrs - a.replicaErrs)

	appends := float64(b.st.Appends - a.st.Appends)
	syncs := float64(b.st.Syncs - a.st.Syncs)
	elided := float64(b.st.SyncElided - a.st.SyncElided)
	pl["store.appends_per_op"] = appends / n
	if w.op == opPut {
		pl["store.write_amp"] = float64(b.st.AppendBytes-a.st.AppendBytes) / (n * valueLen)
	}
	pl["store.syncs_per_op"] = syncs / n
	if syncs+elided > 0 {
		pl["store.sync_elided_frac"] = elided / (syncs + elided)
	}
	pl["store.gets_per_op"] = float64(b.st.Gets-a.st.Gets) / n
	pl["store.compactions"] = float64(b.st.Compactions - a.st.Compactions)
	if b.st.TotalBytes > 0 {
		pl["store.dead_frac_end"] = float64(b.st.DeadBytes) / float64(b.st.TotalBytes)
	}
}
