//go:build soak

package netchord

// The soak test (make soak, docs/NETWORK.md) runs a 16-host cluster
// over real loopback TCP sockets for about a minute under frame loss
// and a mid-run partition, then asserts the two properties that only
// show up over time: goroutine-exact shutdown (no leaked accept loops,
// maintenance tickers, or pooled connections) and key durability with
// Replicas >= 2 across everything the run did to the ring. It is gated
// behind the soak build tag so `go test ./...` stays fast.

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// awaitProgress polls the collector until the cluster has consumed at
// least want units with nothing residual, or the deadline passes.
func awaitProgress(t *testing.T, c *Cluster, want uint64, timeout time.Duration) wire.Stats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		p := c.Collector().Stats()
		if p.Consumed >= want && p.Residual == 0 {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("workload incomplete after %v: %+v", timeout, p)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// soakGoroutineSlack is the tolerated post-shutdown goroutine delta.
// The Go runtime parks a few of its own helpers (netpoll, timer
// wakeups) on first use and never unwinds them; everything netchord
// starts must be gone.
const soakGoroutineSlack = 3

func TestSoakCluster(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	cfg := Config{
		TickEvery:       2 * time.Millisecond,
		Replicas:        2,
		InviteThreshold: 8,
	}.WithDefaults()
	nf, err := NewNetFaults(faults.Plan{Seed: 42, DropRate: 0.02, DupRate: 0.01}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, TCP{}, nf, 16, "invitation", 101, nil)
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
		t.Fatal("16-host TCP ring did not converge")
	}

	// Durable keys, replicated, written before any trouble starts. With
	// Replicas >= 2 every one of them must survive the whole soak.
	rng := xrand.New(55)
	keys := make([]ids.ID, 64)
	for i := range keys {
		keys[i] = ids.Random(rng)
		if err := nodeClient(c.Hosts()[i%16].PrimaryNode()).Put(keys[i], []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Soak window: a steady skewed task stream into one arc while a
	// quarter of the identifier space partitions away mid-run and heals
	// before the end. Submissions that fail during the partition are
	// simply not counted — the accounting check below only requires
	// that everything that entered the system is consumed.
	target := c.Hosts()[5].PrimaryNode()
	pred, ok := target.Predecessor()
	if !ok {
		t.Fatal("target has no predecessor after convergence")
	}
	const window = 60 * time.Second
	start := time.Now()
	partitionAt := start.Add(window / 3)
	healAt := start.Add(2 * window / 3)
	partitioned, healed := false, false
	var submitted uint64
	submitErrs := 0
	for time.Since(start) < window {
		if !partitioned && time.Now().After(partitionAt) {
			if err := nf.ForcePartition(0.25); err != nil {
				t.Fatal(err)
			}
			partitioned = true
		}
		if !healed && time.Now().After(healAt) {
			nf.Heal()
			healed = true
		}
		key, err := ids.UniformInRange(rng, pred.ID, target.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeClient(c.Hosts()[int(submitted/8)%16].PrimaryNode()).SubmitTask(key, 8); err != nil {
			submitErrs++
		} else {
			submitted += 8
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !healed {
		nf.Heal()
	}
	t.Logf("soak window done: submitted=%d submit-errors=%d", submitted, submitErrs)
	if submitted == 0 {
		t.Fatal("no submission ever succeeded during the soak window")
	}

	// Everything that entered the system must drain: consumed at least
	// what was acknowledged, nothing residual.
	p := awaitProgress(t, c, submitted, 120*time.Second)
	t.Logf("drained: consumed=%d busy-ticks=%d injections=%d", p.Consumed, p.BusyTicks, p.Injections)

	// The ring must re-converge after heal, and no key may be lost.
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("ring did not re-converge after heal")
	}
	lost := 0
	for i, k := range keys {
		if _, err := nodeClient(c.Hosts()[(i+3)%16].PrimaryNode()).Get(k); err != nil {
			t.Errorf("key %s lost during soak: %v", k.Short(), err)
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d keys lost with Replicas=%d", lost, len(keys), cfg.Replicas)
	}

	// Shutdown must return the process to its goroutine baseline:
	// every accept loop, node server, maintenance ticker, and pooled
	// connection reader has to exit.
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

// TestSoakDurableStore is the storage soak: a 12-host TCP cluster with
// durable segment logs and Replicas=2 takes a continuous acknowledged
// write stream for a minute under frame drop, delay, and a mid-run
// partition that heals. At the end it asserts the three durability
// properties end-to-end:
//
//  1. zero acknowledged-write loss — every PutVer that returned nil
//     reads back at >= its acknowledged version, exact bytes at
//     version equality;
//  2. post-heal anti-entropy convergence — every node's primary-arc
//     Merkle digest matches its replicas' digests over the same arc,
//     with no full-state transfer anywhere in the protocol;
//  3. goroutine-exact shutdown, segment logs and all.
func TestSoakDurableStore(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	cfg := Config{
		TickEvery: 2 * time.Millisecond,
		Replicas:  2,
		DataDir:   t.TempDir(),
	}.WithDefaults()
	nf, err := NewNetFaults(faults.Plan{
		Seed: 77, DropRate: 0.02, DelayRate: 0.02, MaxDelayTicks: 4,
	}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, TCP{}, nf, 12, StrategyNone, 303, nil)
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

	// The write stream: a bounded key pool overwritten throughout the
	// window, so the final check also catches resurrected stale
	// versions, not just missing keys. Only nil-error puts enter the
	// ledger — an errored put made no durability promise.
	type ackedWrite struct {
		ver   uint64
		value string
	}
	rng := xrand.New(56)
	pool := make([]ids.ID, 48)
	for i := range pool {
		pool[i] = ids.Random(rng)
	}
	ledger := make(map[ids.ID]ackedWrite)

	const window = 60 * time.Second
	start := time.Now()
	partitionAt := start.Add(window / 3)
	healAt := start.Add(2 * window / 3)
	partitioned, healed := false, false
	acked, putErrs := 0, 0
	for i := 0; time.Since(start) < window; i++ {
		if !partitioned && time.Now().After(partitionAt) {
			if err := nf.ForcePartition(0.25); err != nil {
				t.Fatal(err)
			}
			partitioned = true
		}
		if !healed && time.Now().After(healAt) {
			nf.Heal()
			healed = true
		}
		key := pool[i%len(pool)]
		val := "soak-" + key.Short() + "-" + time.Now().Format("150405.000")
		ver, err := nodeClient(c.Hosts()[i%12].PrimaryNode()).PutVer(key, []byte(val))
		if err != nil {
			putErrs++
		} else {
			acked++
			if prev, ok := ledger[key]; !ok || ver >= prev.ver {
				ledger[key] = ackedWrite{ver: ver, value: val}
			}
		}
		time.Sleep(75 * time.Millisecond)
	}
	if !healed {
		nf.Heal()
	}
	t.Logf("write window done: acked=%d errors=%d distinct-keys=%d", acked, putErrs, len(ledger))
	if acked == 0 {
		t.Fatal("no write was ever acknowledged during the soak window")
	}
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("ring did not re-converge after heal")
	}

	// (1) Zero acknowledged-write loss.
	lost := 0
	for key, w := range ledger {
		var v []byte
		var ver uint64
		deadline := time.Now().Add(30 * time.Second)
		for {
			v, ver, err = nodeClient(c.Hosts()[int(key[0])%12].PrimaryNode()).GetVer(key)
			if err == nil && ver >= w.ver {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("acked write %s@%d unreadable: ver=%d err=%v", key.Short(), w.ver, ver, err)
				lost++
				break
			}
			time.Sleep(cfg.Ticks(antiEntropyEveryTicks))
		}
		if err == nil && ver == w.ver && string(v) != w.value {
			t.Errorf("acked bytes lost for %s@%d: %q != %q", key.Short(), w.ver, v, w.value)
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d acknowledged writes lost with Replicas=%d", lost, len(ledger), cfg.Replicas)
	}

	// (2) Post-heal Merkle convergence: every node's primary-arc digest
	// equals its replicas' digests over the same arc, and so do the
	// arc's per-key metas. Metas bypass the digest memo, so a memo that
	// served a stale digest on both sides cannot vouch for itself here.
	byID := make(map[ids.ID]*Node)
	for _, n := range c.Nodes() {
		byID[n.ID()] = n
	}
	digestDeadline := time.Now().Add(120 * time.Second)
	for {
		diverged := 0
		for _, n := range c.Nodes() {
			pred, ok := n.Predecessor()
			if !ok {
				diverged++
				continue
			}
			want, _ := n.Store().Digest(pred.ID, n.ID())
			wantMetas, _ := n.Store().Metas(pred.ID, n.ID(), math.MaxInt)
			reps := dedupeRefs(nil, n.SuccessorList(), n.ID(), cfg.Replicas-1)
			for _, r := range reps {
				rep := byID[r.ID]
				if rep == nil {
					continue // ref to a node outside this cluster snapshot
				}
				got, _ := rep.Store().Digest(pred.ID, n.ID())
				gotMetas, _ := rep.Store().Metas(pred.ID, n.ID(), math.MaxInt)
				if got != want || !slices.Equal(gotMetas, wantMetas) {
					diverged++
				}
			}
		}
		if diverged == 0 {
			break
		}
		if time.Now().After(digestDeadline) {
			t.Fatalf("anti-entropy never converged: %d divergent arcs remain", diverged)
		}
		time.Sleep(cfg.Ticks(antiEntropyEveryTicks * 2))
	}
	t.Logf("all primary arcs digest-equal and metas-equal across replicas")
	var compactions uint64
	for _, n := range c.Nodes() {
		compactions += n.Store().Stats().Compactions
	}
	t.Logf("store compactions over the soak: %d", compactions)

	// (3) Goroutine-exact shutdown.
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
