package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/netchord"
	"chordbalance/internal/obs"
	"chordbalance/internal/stats"
	"chordbalance/internal/streamload"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// streamOpts is the parsed -stream flag set (see run for the flags).
type streamOpts struct {
	virtual   bool
	addr      string
	collector string
	seed      uint64
	hotBits   int
	tick      time.Duration
	jsonOut   bool
	tracePath string

	viewers       int
	objects       int
	objectChunks  int
	chunkBytes    int
	tailBytes     int
	chunkDur      time.Duration
	zipfS         float64
	startupChunks int
	window        int
	inflight      int
	midJoin       float64
	target        uint64
	slo           time.Duration
	maxRun        time.Duration
	ingestWorkers int
	vLatency      time.Duration
	vJitter       time.Duration
	vLoss         float64
}

// streamSummary is the -stream JSON (and text) report. A virtual run's
// summary contains no wall-clock-dependent field, which is what makes
// same-seed runs byte-identical.
type streamSummary struct {
	Mode         string `json:"mode"`
	Seed         uint64 `json:"seed"`
	HotBits      int    `json:"hot_bits"`
	Objects      int    `json:"objects"`
	ObjectChunks int    `json:"object_chunks"`
	ChunkBytes   int    `json:"chunk_bytes"`
	// IngestAcked is chunks acknowledged by the ring during catalog
	// ingest (TotalChunks by construction on a virtual run).
	IngestAcked uint64            `json:"ingest_acked"`
	Stream      streamload.Result `json:"stream"`
	// RouteHits and RouteLookups are the client's Client.RouteStats over
	// the whole run, ingest included.
	RouteHits    uint64 `json:"route_hits"`
	RouteLookups uint64 `json:"route_lookups"`
	// VerifyLost counts delivered chunks whose bytes did not match the
	// catalog — the streaming analogue of the put workload's verify_lost,
	// and it must be zero on every run.
	VerifyLost uint64      `json:"verify_lost"`
	Net        *wire.Stats `json:"net,omitempty"`
}

// countingPutter counts acknowledged puts during catalog ingest.
type countingPutter struct {
	c     *netchord.Client
	acked atomic.Uint64
}

func (p *countingPutter) Put(key ids.ID, value []byte) error {
	if err := p.c.Put(key, value); err != nil {
		return err
	}
	p.acked.Add(1)
	return nil
}

// runStream runs the chunked streaming workload: against a live cluster
// with -stream, or against the seeded virtual network model with
// -stream-virtual.
func runStream(o streamOpts, out io.Writer) error {
	rng := xrand.New(o.seed)
	cat := &streamload.Catalog{
		Objects:      o.objects,
		ObjectChunks: o.objectChunks,
		ChunkBytes:   o.chunkBytes,
		TailBytes:    o.tailBytes,
		Salt:         o.seed,
		HotBits:      o.hotBits,
	}
	if o.hotBits > 0 {
		cat.ArcLow = ids.Random(rng)
	}
	if err := cat.Validate(); err != nil {
		return err
	}
	scfg := streamload.Config{
		Catalog:       cat,
		Viewers:       o.viewers,
		Seed:          o.seed,
		ZipfS:         o.zipfS,
		ChunkDur:      o.chunkDur,
		StartupChunks: o.startupChunks,
		Window:        o.window,
		MaxInFlight:   o.inflight,
		MidJoinProb:   o.midJoin,
		TargetChunks:  o.target,
		SLO:           o.slo,
	}

	sum := streamSummary{
		Mode:         "stream",
		Seed:         o.seed,
		HotBits:      o.hotBits,
		Objects:      o.objects,
		ObjectChunks: o.objectChunks,
		ChunkBytes:   o.chunkBytes,
	}
	var err error
	if o.virtual {
		sum.Mode = "stream-virtual"
		sum.IngestAcked = uint64(cat.TotalChunks()) // content exists by construction
		sum.Stream, err = streamload.RunVirtual(streamload.VirtualConfig{
			Config:        scfg,
			BaseLatency:   o.vLatency,
			JitterLatency: o.vJitter,
			LossProb:      o.vLoss,
		})
		if err != nil {
			return err
		}
	} else if err = runStreamLive(o, cat, scfg, &sum); err != nil {
		return err
	}

	if err := emitStreamTrace(o, sum.Stream); err != nil {
		return err
	}
	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	r := sum.Stream
	fmt.Fprintf(out, "%s viewers=%d sessions=%d chunks=%d bytes=%d fetch-errors=%d\n",
		sum.Mode, r.Viewers, r.Sessions, r.Chunks, r.Bytes, r.FetchErrors)
	fmt.Fprintf(out, "rebuffer-rate=%.6f deadline-miss-rate=%.6f stall-ms=%.1f startup-us p50=%.0f p99=%.0f\n",
		r.RebufferRate, r.DeadlineMissRate, float64(r.StallNs)/1e6, r.StartupP50us, r.StartupP99us)
	fmt.Fprintf(out, "fetch-us p50=%.0f p90=%.0f p99=%.0f slo-miss=%d\n",
		r.FetchP50us, r.FetchP90us, r.FetchP99us, r.SLOMiss)
	if !o.virtual {
		fmt.Fprintf(out, "ingest-acked=%d route-hits=%d route-lookups=%d verify-lost=%d\n",
			sum.IngestAcked, sum.RouteHits, sum.RouteLookups, sum.VerifyLost)
	}
	if sum.Net != nil {
		fmt.Fprintf(out, "net stream-chunks=%d miss=%d rebuffers=%d bytes=%d store-acked=%d\n",
			sum.Net.StreamChunks, sum.Net.StreamDeadlineMiss, sum.Net.StreamRebuffers,
			sum.Net.StreamBytes, sum.Net.StoreAcked)
	}
	return nil
}

// runStreamLive ingests the catalog into a live ring and plays the
// sessions through the real-time engine, pushing cumulative counters to
// the collector along the way.
func runStreamLive(o streamOpts, cat *streamload.Catalog, scfg streamload.Config, sum *streamSummary) error {
	if o.addr == "" {
		return fmt.Errorf("-addr is required (or use -stream-virtual)")
	}
	cfg := netchord.Config{TickEvery: o.tick}.WithDefaults()
	tr := netchord.TCP{}
	client := netchord.NewClient(cfg, tr, o.addr, o.seed)
	defer client.Close()
	if err := client.Ping(); err != nil {
		return fmt.Errorf("ping %s: %w", o.addr, err)
	}

	ing := &countingPutter{c: client}
	if err := streamload.Ingest(ing, cat, o.ingestWorkers); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	sum.IngestAcked = ing.acked.Load()

	fetcher := streamload.NewNetFetcher(client, cat, true)
	eng, err := streamload.NewEngine(scfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if o.maxRun > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.maxRun)
		defer cancel()
	}

	// Reporter loop: push the monotone delivery counters to the
	// collector on the hosts' reporting cadence, so an observer can
	// watch a stream run converge the same way it watches task runs.
	report := func() {
		t := eng.Totals()
		_ = client.ReportStream(o.collector, t.Chunks, t.DeadlineMiss, t.Rebuffers, t.Bytes)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	if o.collector != "" {
		go func() {
			defer close(done)
			tick := time.NewTicker(cfg.Ticks(netchord.ReportEveryTicks * 2))
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					report()
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(done)
	}

	sum.Stream = eng.Run(ctx, fetcher)
	close(stop)
	<-done
	if o.collector != "" {
		report() // final cumulative totals, racing nothing
		if p, err := netchord.FetchStats(tr, cfg, o.collector); err == nil {
			sum.Net = &p
		}
	}
	sum.RouteHits, sum.RouteLookups = client.RouteStats()
	sum.VerifyLost = fetcher.Corrupt()
	return nil
}

// emitStreamTrace writes the per-chunk latency histogram and delivery
// counters as a JSONL trace, mirroring the put/task workload's -trace.
func emitStreamTrace(o streamOpts, r streamload.Result) error {
	if o.tracePath == "" {
		return nil
	}
	sink, err := obs.NewFileSink(o.tracePath)
	if err != nil {
		return err
	}
	tracer := obs.New(sink)
	reg := tracer.Registry()
	hist := reg.Histogram("stream.fetch_us", "us", "per-chunk fetch latency", stats.LogEdges(1e7, 3))
	chunks := reg.Counter("stream.chunks", "chunks", "chunks delivered")
	miss := reg.Counter("stream.deadline_miss", "chunks", "chunks past their playback deadline")
	rebuf := reg.Counter("stream.rebuffers", "stalls", "playhead stalls")
	slo := reg.Counter("stream.slo_miss", "chunks", "fetches over the latency SLO")
	tracer.EmitMeta(obs.F{K: "source", V: "dhtload-stream"})
	tracer.EmitSchema()
	for _, us := range r.LatsUs {
		hist.Observe(us)
	}
	chunks.Add(int64(r.Chunks))
	miss.Add(int64(r.DeadlineMiss))
	rebuf.Add(int64(r.Rebuffers))
	slo.Add(int64(r.SLOMiss))
	tracer.EmitTick(int(r.DurationNs / int64(o.tick)))
	return tracer.Close()
}
