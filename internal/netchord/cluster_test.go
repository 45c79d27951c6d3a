package netchord

import (
	"testing"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// clusterConfig is the fast clock used by the cluster tests.
func clusterConfig() Config {
	return Config{TickEvery: 2 * time.Millisecond, InviteThreshold: 8}.WithDefaults()
}

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

// TestCluster16Invitation is the 16-node loopback satellite: start,
// join, converge, run the invitation strategy to completion under frame
// loss and a mid-run partition, and assert the lookup success rate is
// exactly 1.0 after the partition heals.
func TestCluster16Invitation(t *testing.T) {
	cfg := clusterConfig()
	nf, err := NewNetFaults(faults.Plan{Seed: 21, DropRate: 0.02}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, NewPipeTransport(), nf, 16, "invitation", 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("16-node ring did not converge")
	}

	// Durable keys, replicated, written before any trouble starts.
	rng := xrand.New(123)
	keys := make([]ids.ID, 32)
	for i := range keys {
		keys[i] = ids.Random(rng)
		if err := nodeClient(c.Hosts()[i%16].PrimaryNode()).Put(keys[i], []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// The paper's skewed workload: every task unit lands in one arc, so
	// a single primary starts with all the work and must invite helpers.
	target := c.Hosts()[5].PrimaryNode()
	pred, ok := target.Predecessor()
	if !ok {
		t.Fatal("target has no predecessor after convergence")
	}
	const units = 1024
	submitted := uint64(0)
	for submitted < units {
		key, err := ids.UniformInRange(rng, pred.ID, target.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeClient(c.Hosts()[0].PrimaryNode()).SubmitTask(key, 8); err != nil {
			t.Fatalf("submit: %v", err)
		}
		submitted += 8
	}

	// Partition a quarter of the identifier space mid-run, let the
	// strategies fight through it, then heal.
	if err := nf.ForcePartition(0.25); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	nf.Heal()

	p := awaitProgress(t, c, units, 90*time.Second)
	if rf := RuntimeFactor(p, units); rf <= 0 {
		t.Fatalf("runtime factor not computed: %+v", p)
	}
	if p.Injections == 0 {
		t.Fatal("invitation strategy never injected a Sybil into the loaded arc")
	}

	// After heal the ring must re-converge and every lookup and every
	// stored key must succeed: success rate exactly 1.0.
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("ring did not re-converge after heal")
	}
	lookups, ok := 0, true
	for _, h := range c.Hosts() {
		for trial := 0; trial < 4; trial++ {
			if _, _, err := h.PrimaryNode().Lookup(ids.Random(rng)); err != nil {
				t.Errorf("lookup from host %d failed after heal: %v", h.Index(), err)
				ok = false
			}
			lookups++
		}
	}
	for i, k := range keys {
		if _, err := nodeClient(c.Hosts()[(i+7)%16].PrimaryNode()).Get(k); err != nil {
			t.Errorf("key %s unreadable after heal: %v", k.Short(), err)
			ok = false
		}
		lookups++
	}
	if !ok {
		t.Fatalf("lookup success rate < 1.0 over %d lookups after heal", lookups)
	}
}

func TestClusterNeighborInjection(t *testing.T) {
	// Idle hosts inject from the first decision pass, so membership
	// keeps growing until every host hits its Sybil cap; keep the cap
	// small so the ring can settle.
	cfg := clusterConfig()
	cfg.MaxSybils = 2
	c, err := NewCluster(cfg, NewPipeTransport(), nil, 4, "neighbor", 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("ring did not converge")
	}

	// Load one arc; the idle neighbors should split it.
	target := c.Hosts()[2].PrimaryNode()
	pred, _ := target.Predecessor()
	rng := xrand.New(4)
	const units = 256
	for submitted := 0; submitted < units; submitted += 4 {
		key, err := ids.UniformInRange(rng, pred.ID, target.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeClient(c.Hosts()[0].PrimaryNode()).SubmitTask(key, 4); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p := awaitProgress(t, c, units, 60*time.Second)
	if p.Injections == 0 {
		t.Fatal("neighbor strategy never injected a Sybil")
	}
}

func TestClusterRandomInjectionAndWithdraw(t *testing.T) {
	cfg := clusterConfig()
	c, err := NewCluster(cfg, NewPipeTransport(), nil, 4, "random", 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if !c.AwaitConverged(30 * time.Second) {
		t.Fatal("ring did not converge")
	}
	target := c.Hosts()[1].PrimaryNode()
	pred, _ := target.Predecessor()
	rng := xrand.New(6)
	const units = 256
	for submitted := 0; submitted < units; submitted += 4 {
		key, err := ids.UniformInRange(rng, pred.ID, target.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeClient(c.Hosts()[3].PrimaryNode()).SubmitTask(key, 4); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p := awaitProgress(t, c, units, 60*time.Second)
	if p.Injections == 0 {
		t.Fatal("random strategy never injected a Sybil")
	}
}

func TestClusterChurnConservesWork(t *testing.T) {
	cfg := clusterConfig()
	// Hosts churn from their first decision pass, and the convergence
	// oracle needs a fully settled moment to observe; keep the churn
	// rate low enough that such moments exist between departures.
	cfg.ChurnProb = 0.02
	c, err := NewCluster(cfg, NewPipeTransport(), nil, 4, "churn", 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if !c.AwaitConverged(30 * time.Second) {
		t.Fatal("ring did not converge")
	}
	rng := xrand.New(8)
	const units = 512
	for submitted := 0; submitted < units; submitted += 8 {
		if err := nodeClient(c.Hosts()[0].PrimaryNode()).SubmitTask(ids.Random(rng), 8); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// Churn hands residual work to successors on every departure; the
	// collector must still account for every unit at completion.
	awaitProgress(t, c, units, 90*time.Second)
	churns := 0
	for _, h := range c.Hosts() {
		churns += h.Stats().Churns
	}
	if churns == 0 {
		t.Fatal("induced-churn strategy never churned")
	}
}
