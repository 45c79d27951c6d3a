// Command dhtload drives a running chordd cluster over real sockets: a
// seeded stream of puts and task submissions at a target request rate,
// an operation-latency histogram, a completion poll against the
// collector, and a final lookup probe — everything needed to measure
// the paper's runtime factor against a live ring instead of the
// simulator.
//
// Example — the paper's skewed workload against a local cluster:
//
//	chordd -nodes 16 -strategy invitation -seed 77 &
//	dhtload -addr 127.0.0.1:9000 -collector 127.0.0.1:9001 \
//	        -tasks 1024 -batch 8 -hot-bits 4 -rps 500 -await 60s -json
//
// With -hot-bits k every task key is drawn from one arc spanning
// 2^(Bits-k) of the identifier space, concentrating the whole job on a
// small set of owners (k=0 spreads keys uniformly). The summary reports
// achieved rates, latency percentiles from the histogram, the
// collector's progress view with the runtime factor, and the lookup
// success rate.
//
// With -stream the tool instead runs the chunked streaming workload
// (docs/STREAMING.md): it ingests a deterministic catalog of chunked
// objects, then plays N concurrent viewers with Zipf object popularity,
// bounded prefetch, and pipelined fetches, reporting rebuffer rate,
// deadline misses, and per-chunk latency percentiles. -stream-virtual
// runs the same workload against a seeded latency model with no cluster
// at all; its JSON summary is byte-identical across same-seed runs.
//
//	dhtload -stream -addr 127.0.0.1:9000 -collector 127.0.0.1:9001 \
//	        -viewers 32 -hot-bits 4 -stream-chunks 100000 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/netchord"
	"chordbalance/internal/obs"
	"chordbalance/internal/stats"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dhtload:", err)
		os.Exit(1)
	}
}

// summary is dhtload's JSON (and text) report.
type summary struct {
	Puts           int     `json:"puts"`
	PutErrors      int     `json:"put_errors"`
	TasksSubmitted uint64  `json:"tasks_submitted"`
	SubmitErrors   int     `json:"submit_errors"`
	AchievedRPS    float64 `json:"achieved_rps"`
	LatencyP50us   float64 `json:"latency_p50_us"`
	LatencyP90us   float64 `json:"latency_p90_us"`
	LatencyP99us   float64 `json:"latency_p99_us"`

	Completed     bool    `json:"completed"`
	Consumed      uint64  `json:"consumed"`
	Residual      uint64  `json:"residual"`
	BusyTicks     int     `json:"busy_ticks"`
	RuntimeFactor float64 `json:"runtime_factor"`

	Lookups       int     `json:"lookups"`
	LookupsOK     int     `json:"lookups_ok"`
	LookupSuccess float64 `json:"lookup_success"`

	// RouteHits and RouteLookups are the client's Client.RouteStats over
	// the put, task and verify phases: keyed operations that reached a
	// cached owner in one round trip, and iterative lookups run instead.
	// A warm run against a stable ring is almost all hits.
	RouteHits    uint64 `json:"route_hits"`
	RouteLookups uint64 `json:"route_lookups"`

	// Durability verification (-verify): every acknowledged write must
	// later read back at >= its acknowledged version, with the exact
	// bytes when the version matches. VerifyLost must be zero on any
	// run — an acknowledged write that cannot be read back at its
	// version is a broken durability contract, not bad luck.
	VerifyAcked int `json:"verify_acked,omitempty"`
	VerifyLost  int `json:"verify_lost,omitempty"`
	VerifyStale int `json:"verify_stale,omitempty"`

	// Net is the collector's cumulative counter view (store acks,
	// anti-entropy work, streaming deliveries), present when a collector
	// address was given. It appears in both the put/task summary and the
	// -stream summary so the two run kinds are directly diffable.
	Net *wire.Stats `json:"net,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhtload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "address of any ring member (required)")
		collector = fs.String("collector", "", "collector address (enables -await and the runtime factor)")
		seed      = fs.Uint64("seed", 1, "deterministic key/token stream seed")
		puts      = fs.Int("puts", 32, "keys to put before the task stream")
		valueLen  = fs.Int("value-len", 16, "value size in bytes for puts")
		tasks     = fs.Uint64("tasks", 1024, "total task units to submit")
		batch     = fs.Uint64("batch", 8, "units per task submission")
		hotBits   = fs.Int("hot-bits", 0, "task keys land in one arc of 2^(Bits-k) ids (0 = uniform)")
		rps       = fs.Float64("rps", 500, "target request rate for puts and submissions")
		await     = fs.Duration("await", 0, "poll the collector until the workload completes (0 = don't wait)")
		lookups   = fs.Int("lookups", 64, "random lookups probed after the workload")
		verify    = fs.Int("verify", 0, "durability verification writes over a small key pool (0 = off); the summary's verify_lost must be 0")
		tick      = fs.Duration("tick", 5*time.Millisecond, "logical tick length (must match the cluster's)")
		jsonOut   = fs.Bool("json", false, "emit the summary as JSON (for scripting)")
		tracePath = fs.String("trace", "", "write the latency histogram as a JSONL trace to this file")

		stream        = fs.Bool("stream", false, "run the chunked streaming workload instead of the put/task phases")
		streamVirtual = fs.Bool("stream-virtual", false, "stream against a seeded virtual network model: no cluster, byte-identical JSON per seed")
		viewers       = fs.Int("viewers", 16, "concurrent playback sessions (-stream)")
		objects       = fs.Int("objects", 64, "objects in the streaming catalog (-stream)")
		objectChunks  = fs.Int("object-chunks", 128, "chunks per object (-stream)")
		chunkBytes    = fs.Int("chunk-bytes", 2048, "payload bytes per chunk (-stream)")
		tailBytes     = fs.Int("tail-bytes", 0, "bytes in each object's final chunk, 0 = full size (-stream)")
		chunkDur      = fs.Duration("chunk-dur", 2*time.Millisecond, "playback duration of one chunk, i.e. chunk bytes over the bitrate (-stream)")
		zipfS         = fs.Float64("zipf", 1.0, "object popularity exponent, 0 = uniform (-stream)")
		startupChunks = fs.Int("startup-chunks", 2, "chunks buffered before playback starts (-stream)")
		streamWindow  = fs.Int("stream-window", 16, "prefetch window in chunks ahead of the playhead, 0 = unbounded (-stream)")
		streamInFl    = fs.Int("stream-inflight", 4, "pipelined fetches per viewer (-stream)")
		midJoin       = fs.Float64("midjoin-prob", 0.1, "probability a session joins mid-object (-stream)")
		streamChunks  = fs.Uint64("stream-chunks", 0, "stop after this many delivered chunks, 0 = one session per viewer (-stream)")
		streamSLO     = fs.Duration("stream-slo", 0, "per-chunk fetch latency objective, 0 = off (-stream)")
		streamMax     = fs.Duration("stream-max", 0, "hard wall-clock cap on the streaming run, 0 = none (-stream)")
		ingestWorkers = fs.Int("ingest-workers", 8, "parallel put workers during catalog ingest (-stream)")
		vLatency      = fs.Duration("virtual-latency", time.Millisecond, "base fetch latency of the virtual network (-stream-virtual)")
		vJitter       = fs.Duration("virtual-jitter", 2*time.Millisecond, "mean exponential latency jitter of the virtual network (-stream-virtual)")
		vLoss         = fs.Float64("virtual-loss", 0, "fetch loss probability of the virtual network (-stream-virtual)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hotBits < 0 || *hotBits >= ids.Bits {
		return fmt.Errorf("-hot-bits must be in [0, %d)", ids.Bits)
	}
	if *stream || *streamVirtual {
		return runStream(streamOpts{
			virtual:       *streamVirtual,
			addr:          *addr,
			collector:     *collector,
			seed:          *seed,
			hotBits:       *hotBits,
			tick:          *tick,
			jsonOut:       *jsonOut,
			tracePath:     *tracePath,
			viewers:       *viewers,
			objects:       *objects,
			objectChunks:  *objectChunks,
			chunkBytes:    *chunkBytes,
			tailBytes:     *tailBytes,
			chunkDur:      *chunkDur,
			zipfS:         *zipfS,
			startupChunks: *startupChunks,
			window:        *streamWindow,
			inflight:      *streamInFl,
			midJoin:       *midJoin,
			target:        *streamChunks,
			slo:           *streamSLO,
			maxRun:        *streamMax,
			ingestWorkers: *ingestWorkers,
			vLatency:      *vLatency,
			vJitter:       *vJitter,
			vLoss:         *vLoss,
		}, out)
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	// The pacing ticker needs an interval of at least 1ns.
	if !(*rps > 0 && *rps <= 1e9) {
		return fmt.Errorf("-rps must be in (0, 1e9], got %v", *rps)
	}
	if *valueLen < 0 {
		return fmt.Errorf("-value-len must be >= 0, got %d", *valueLen)
	}
	if *batch == 0 {
		*batch = 1
	}

	cfg := netchord.Config{TickEvery: *tick}.WithDefaults()
	tr := netchord.TCP{}
	client := netchord.NewClient(cfg, tr, *addr, *seed)
	defer client.Close()
	if err := client.Ping(); err != nil {
		return fmt.Errorf("ping %s: %w", *addr, err)
	}

	// The latency histogram rides the obs pipeline so dhttrace-style
	// tooling can read load runs the same way it reads simulator traces.
	var tracer *obs.Tracer
	reg := obs.NewRegistry()
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			return err
		}
		tracer = obs.New(sink)
		reg = tracer.Registry()
	}
	hist := reg.Histogram("load.latency", "us", "operation latency", stats.LogEdges(1e7, 3))
	ops := reg.Counter("load.ops", "ops", "operations issued")
	errs := reg.Counter("load.errors", "ops", "operations failed")
	vAcked := reg.Counter("load.verify.acked", "writes", "verification writes acknowledged")
	vLost := reg.Counter("load.verify.lost", "writes", "acknowledged writes that failed to read back")
	vStale := reg.Counter("load.verify.stale", "reads", "reads that transiently observed an older version")
	if tracer != nil {
		tracer.EmitMeta(obs.F{K: "source", V: "dhtload"})
		tracer.EmitSchema()
	}

	rng := xrand.New(*seed)
	var latencies []float64
	interval := time.Duration(float64(time.Second) / *rps)
	pace := time.NewTicker(interval)
	defer pace.Stop()
	timed := func(op func() error) error {
		<-pace.C
		t0 := time.Now()
		err := op()
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		hist.Observe(us)
		latencies = append(latencies, us)
		ops.Add(1)
		if err != nil {
			errs.Add(1)
		}
		return err
	}

	s := summary{}
	started := time.Now()

	// Phase 1: seeded puts, uniformly spread.
	value := make([]byte, *valueLen)
	for i := range value {
		value[i] = byte(rng.Intn(256))
	}
	for i := 0; i < *puts; i++ {
		key := ids.Random(rng)
		if err := timed(func() error { return client.Put(key, value) }); err != nil {
			s.PutErrors++
		} else {
			s.Puts++
		}
	}

	// Phase 1.5 (-verify): the durability verification stream. A small
	// key pool is overwritten repeatedly; every acknowledged write is
	// remembered with its acknowledged version, checked read-your-writes
	// immediately, and swept again at the end. Re-used keys make the
	// read-latest check meaningful: an old replica resurrecting a
	// superseded version is as much a bug as a lost write.
	type ackedWrite struct {
		ver   uint64
		value []byte
	}
	var verifyKeys []ids.ID
	verified := make(map[ids.ID]ackedWrite)
	// checkKey reads key until it observes the latest acknowledged
	// state (version >= acked, exact bytes at equality), counting
	// transient stale observations; retries ride out churn and
	// anti-entropy lag before a miss is declared a loss.
	checkKey := func(key ids.ID, want ackedWrite, attempts int) {
		sawStale := false
		for a := 0; a < attempts; a++ {
			if a > 0 {
				time.Sleep(cfg.Ticks(netchord.StabilizeEveryTicks * 2))
			}
			v, ver, err := client.GetVer(key)
			if err == nil && ver > want.ver {
				break // overwritten by a later acked write: fine
			}
			if err == nil && ver == want.ver && string(v) == string(want.value) {
				break
			}
			sawStale = true
			if a == attempts-1 {
				s.VerifyLost++
				vLost.Add(1)
				return
			}
		}
		if sawStale {
			s.VerifyStale++
			vStale.Add(1)
		}
	}
	if *verify > 0 {
		pool := *verify / 4
		if pool < 1 {
			pool = 1
		}
		if pool > 64 {
			pool = 64
		}
		for i := 0; i < pool; i++ {
			verifyKeys = append(verifyKeys, ids.Random(rng))
		}
		for i := 0; i < *verify; i++ {
			key := verifyKeys[rng.Intn(len(verifyKeys))]
			val := []byte(fmt.Sprintf("verify-%s-%d", key.Short(), i))
			var ver uint64
			err := timed(func() error {
				var err error
				ver, err = client.PutVer(key, val)
				return err
			})
			if err != nil {
				s.PutErrors++
				continue // never acknowledged: nothing to hold the ring to
			}
			s.VerifyAcked++
			vAcked.Add(1)
			verified[key] = ackedWrite{ver: ver, value: val}
			// Read-your-writes: the ack means durable now, not eventually.
			checkKey(key, verified[key], 3)
		}
	}

	// Phase 2: the task stream. With -hot-bits the whole job lands in
	// one arc — the paper's skewed workload that a single primary must
	// shed through its strategy.
	arcLow := ids.Random(rng)
	arcHigh := arcLow
	if *hotBits > 0 {
		arcHigh = arcLow.Add(ids.PowerOfTwo(ids.Bits - *hotBits))
	}
	for s.TasksSubmitted < *tasks {
		units := *batch
		if rest := *tasks - s.TasksSubmitted; units > rest {
			units = rest
		}
		var key ids.ID
		if *hotBits > 0 {
			k, err := ids.UniformInRange(rng, arcLow, arcHigh)
			if err != nil {
				return err
			}
			key = k
		} else {
			key = ids.Random(rng)
		}
		if err := timed(func() error { return client.SubmitTask(key, units) }); err != nil {
			s.SubmitErrors++
			continue // those units never entered the system
		}
		s.TasksSubmitted += units
	}
	if elapsed := time.Since(started).Seconds(); elapsed > 0 {
		s.AchievedRPS = float64(len(latencies)) / elapsed
	}
	if len(latencies) > 0 {
		s.LatencyP50us = stats.Percentile(latencies, 50)
		s.LatencyP90us = stats.Percentile(latencies, 90)
		s.LatencyP99us = stats.Percentile(latencies, 99)
	}

	// Phase 3: poll the collector until every submitted unit is
	// consumed and nothing is residual.
	if *collector != "" && *await > 0 {
		deadline := time.Now().Add(*await)
		for {
			p, err := netchord.FetchStats(tr, cfg, *collector)
			if err == nil {
				s.Consumed, s.Residual, s.BusyTicks = p.Consumed, p.Residual, int(p.BusyTicks)
				s.RuntimeFactor = netchord.RuntimeFactor(p, s.TasksSubmitted)
				if p.Consumed >= s.TasksSubmitted && p.Residual == 0 {
					s.Completed = true
					break
				}
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(cfg.Ticks(netchord.ReportEveryTicks * 4))
		}
	}

	// The collector's cumulative counter view, for diffing against
	// streaming runs.
	if *collector != "" {
		if p, err := netchord.FetchStats(tr, cfg, *collector); err == nil {
			s.Net = &p
		}
	}

	// Phase 3.5 (-verify): the read-latest sweep. After the workload —
	// and whatever churn, Sybils, and faults it drove — every key's
	// latest acknowledged write must still read back. More retries than
	// the inline check: the cluster may still be reconverging.
	for _, key := range verifyKeys {
		want, ok := verified[key]
		if !ok {
			continue // no write to this key was ever acknowledged
		}
		checkKey(key, want, 8)
	}

	s.RouteHits, s.RouteLookups = client.RouteStats()

	// Phase 4: the lookup probe — routability after whatever the run
	// (faults, churn, Sybils) did to the ring.
	for i := 0; i < *lookups; i++ {
		s.Lookups++
		if _, _, err := client.Lookup(ids.Random(rng)); err == nil {
			s.LookupsOK++
		}
	}
	if s.Lookups > 0 {
		s.LookupSuccess = float64(s.LookupsOK) / float64(s.Lookups)
	}

	if tracer != nil {
		tracer.EmitTick(int(time.Since(started) / cfg.TickEvery))
		if err := tracer.Close(); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	fmt.Fprintf(out, "puts=%d/%d tasks=%d submit-errors=%d rps=%.1f\n",
		s.Puts, *puts, s.TasksSubmitted, s.SubmitErrors, s.AchievedRPS)
	fmt.Fprintf(out, "latency-us p50=%.0f p90=%.0f p99=%.0f\n",
		s.LatencyP50us, s.LatencyP90us, s.LatencyP99us)
	if *collector != "" && *await > 0 {
		fmt.Fprintf(out, "completed=%v consumed=%d residual=%d busy-ticks=%d runtime-factor=%.3f\n",
			s.Completed, s.Consumed, s.Residual, s.BusyTicks, s.RuntimeFactor)
	}
	if *verify > 0 {
		fmt.Fprintf(out, "verify acked=%d lost=%d stale=%d\n", s.VerifyAcked, s.VerifyLost, s.VerifyStale)
	}
	if s.Net != nil {
		fmt.Fprintf(out, "store acked=%d anti-entropy rounds=%d repairs=%d bytes=%d\n",
			s.Net.StoreAcked, s.Net.AntiEntropyRounds, s.Net.AntiEntropyRepairs, s.Net.AntiEntropyBytes)
	}
	fmt.Fprintf(out, "route-hits=%d route-lookups=%d\n", s.RouteHits, s.RouteLookups)
	fmt.Fprintf(out, "lookup-success=%.3f (%d/%d)\n", s.LookupSuccess, s.LookupsOK, s.Lookups)
	return nil
}
