//go:build soak

package netchord

// The streaming soak (make stream-soak, docs/STREAMING.md) points 32
// concurrent viewers at a 12-host loopback TCP cluster for ~30 seconds
// while frames drop and a quarter of the identifier space partitions
// away mid-run and heals. It asserts the streaming read path's three
// over-time properties: every delivered chunk is byte-exact against the
// catalog, every ingested chunk is still readable after the heal (zero
// acked-chunk loss), and the rebuffer rate stays sane despite the
// partition. Gated behind the soak build tag like the other soaks.

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/streamload"
)

// soakIngestPutter spreads catalog puts across the cluster's hosts.
type soakIngestPutter struct {
	c *Cluster
	i atomic.Uint64
}

func (p *soakIngestPutter) Put(key ids.ID, value []byte) error {
	n := p.i.Add(1)
	return nodeClient(p.c.Hosts()[int(n)%len(p.c.Hosts())].PrimaryNode()).Put(key, value)
}

func TestSoakStream(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	cfg := Config{
		TickEvery:       2 * time.Millisecond,
		Replicas:        2,
		InviteThreshold: 8,
		ReadWorkUnits:   1, // served chunks count as work, so reads drive the strategy
	}.WithDefaults()
	nf, err := NewNetFaults(faults.Plan{Seed: 91, DropRate: 0.02, DupRate: 0.01}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, TCP{}, nf, 12, "invitation", 909, nil)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			c.Close()
		}
	})
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("12-host TCP ring did not converge")
	}

	// The catalog lands in one eighth of the ring (HotBits 3) so the
	// viewers concentrate read load the way the paper's skewed task
	// stream does; the invitation strategy has to spread it.
	cat := &streamload.Catalog{
		Objects:      24,
		ObjectChunks: 48,
		ChunkBytes:   512,
		Salt:         909,
		HotBits:      3,
		ArcLow:       ids.MustHex("2000000000000000000000000000000000000000"),
	}
	ing := &soakIngestPutter{c: c}
	if err := streamload.Ingest(ing, cat, 8); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	t.Logf("ingested %d chunks (%d bytes)", cat.TotalChunks(), cat.TotalBytes())

	// A real client over TCP, exactly what dhtload -stream runs: the
	// client's owner cache, full payload verification against the catalog.
	client := NewClient(cfg, TCP{}, c.SeedAddr(), 909)
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	fetcher := streamload.NewNetFetcher(client, cat, true)
	eng, err := streamload.NewEngine(streamload.Config{
		Catalog:       cat,
		Viewers:       32,
		Seed:          909,
		ZipfS:         1.0,
		ChunkDur:      10 * time.Millisecond,
		StartupChunks: 2,
		Window:        8,
		MaxInFlight:   4,
		MidJoinProb:   0.2,
		TargetChunks:  1 << 40, // the window below ends the run, not a count
		SLO:           50 * time.Millisecond,
		RetryBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Soak window: viewers play continuously while a quarter of the ring
	// partitions away a third of the way in and heals at two thirds.
	const window = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	go func() {
		time.Sleep(window / 3)
		if err := nf.ForcePartition(0.25); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(window / 3)
		nf.Heal()
	}()
	// Reporter loop: cumulative totals to the collector, like dhtload.
	repStop := make(chan struct{})
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		tick := time.NewTicker(cfg.Ticks(ReportEveryTicks * 2))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				tot := eng.Totals()
				_ = client.ReportStream(c.Collector().Addr(), tot.Chunks, tot.DeadlineMiss, tot.Rebuffers, tot.Bytes)
			case <-repStop:
				return
			}
		}
	}()

	res := eng.Run(ctx, fetcher)
	close(repStop)
	<-repDone
	nf.Heal() // idempotent: make sure the ring is whole for the sweep
	hits, lookups := client.RouteStats()
	t.Logf("stream window done: sessions=%d chunks=%d errors=%d rebuffer-rate=%.4f "+
		"miss-rate=%.4f p99=%.0fus route-hits=%d lookups=%d",
		res.Sessions, res.Chunks, res.FetchErrors, res.RebufferRate,
		res.DeadlineMissRate, res.FetchP99us, hits, lookups)

	if res.Chunks < 1000 {
		t.Fatalf("only %d chunks delivered in %v; the stream never got going", res.Chunks, window)
	}
	// (1) Byte-exact delivery: a verifying fetcher that saw a single
	// payload diverge from the catalog means acked data was damaged.
	if n := fetcher.Corrupt(); n != 0 {
		t.Fatalf("%d delivered chunks failed catalog verification", n)
	}
	// (2) The partition may stall viewers, but it must not wreck the
	// run: most deliveries still have to be stall-free.
	if res.RebufferRate >= 0.5 {
		t.Fatalf("rebuffer rate %.4f >= 0.5 across the partition window", res.RebufferRate)
	}

	// (3) Zero acked-chunk loss: after the heal, every ingested chunk
	// must read back byte-exact through a fresh verifying fetcher.
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("ring did not re-converge after heal")
	}
	sweep := streamload.NewNetFetcher(client, cat, true)
	lost := 0
	for obj := 0; obj < cat.Objects; obj++ {
		for chunk := 0; chunk < cat.ObjectChunks; chunk++ {
			key := cat.ChunkKey(obj, chunk)
			deadline := time.Now().Add(20 * time.Second)
			for {
				if _, err := sweep.Fetch(obj, chunk, key); err == nil {
					break
				} else if time.Now().After(deadline) {
					t.Errorf("acked chunk %d/%d unreadable after heal: %v", obj, chunk, err)
					lost++
					break
				}
				time.Sleep(cfg.Ticks(StabilizeEveryTicks * 2))
			}
		}
	}
	if lost > 0 || sweep.Corrupt() != 0 {
		t.Fatalf("acked-chunk loss after heal: %d unreadable, %d corrupt of %d",
			lost, sweep.Corrupt(), cat.TotalChunks())
	}
	t.Logf("post-heal sweep: all %d chunks byte-exact", cat.TotalChunks())

	// The collector must have the client's final cumulative report.
	tot := eng.Totals()
	_ = client.ReportStream(c.Collector().Addr(), tot.Chunks, tot.DeadlineMiss, tot.Rebuffers, tot.Bytes)
	p := c.Collector().Stats()
	if p.StreamChunks != res.Chunks || p.StreamBytes != res.Bytes {
		t.Fatalf("collector stream view (chunks=%d bytes=%d) disagrees with the engine (%d, %d)",
			p.StreamChunks, p.StreamBytes, res.Chunks, res.Bytes)
	}

	// Goroutine-exact shutdown, same bar as the other soaks.
	client.Close()
	c.Close()
	closed = true
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+soakGoroutineSlack {
			t.Logf("shutdown clean: goroutines baseline=%d now=%d", baseline, g)
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after shutdown: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(200 * time.Millisecond)
	}
}
