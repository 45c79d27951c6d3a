package netchord

import (
	"testing"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// hostRing adds n hosts running strat, RNG streams from seed, to an
// empty lockstep driver under cfg and plan, and converges the ring
// they form. The hosts decide from the first converging round on, as
// a wall-clock cluster's do from NewCluster on.
func hostRing(t *testing.T, cfg Config, plan faults.Plan, n int, strat string, seed uint64) (*Lockstep, []*Host) {
	t.Helper()
	l := lockstepRing(t, cfg, plan, 0, seed)
	hosts := make([]*Host, n)
	for i := range hosts {
		h, err := l.AddHost(strat, seed)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		hosts[i] = h
	}
	if _, ok := l.Converge(64 * n); !ok {
		t.Fatalf("%d-host ring did not converge", n)
	}
	return l, hosts
}

// loadArc submits units of work, per units a task, at keys drawn from
// target's arc, through a client at via.
func loadArc(t *testing.T, via, target *Node, units, per uint64, rng *xrand.Rand) {
	t.Helper()
	pred, ok := target.Predecessor()
	if !ok {
		t.Fatal("target has no predecessor")
	}
	for submitted := uint64(0); submitted < units; submitted += per {
		key, err := ids.UniformInRange(rng, pred.ID, target.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeClient(via).SubmitTask(key, per); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

// runToCompletion runs rounds until the hosts report want units
// consumed and nothing residual, maxRounds at most, and returns the
// collector's view. Consuming more than was submitted is a duplicated
// unit, and fails the test.
func runToCompletion(t *testing.T, l *Lockstep, want uint64, maxRounds int) wire.Stats {
	t.Helper()
	for range maxRounds {
		l.Round()
		if p := l.Collector().Stats(); p.Consumed >= want && p.Residual == 0 {
			if p.Consumed != want {
				t.Fatalf("hosts consumed %d units of %d submitted", p.Consumed, want)
			}
			return p
		}
	}
	t.Fatalf("workload incomplete after %d rounds: %+v", maxRounds, l.Collector().Stats())
	return wire.Stats{}
}

// TestCluster16Invitation is the 16-host satellite: join, converge, run
// the invitation strategy to completion under frame loss and a mid-run
// partition, and assert the lookup success rate is exactly 1.0 after
// the partition heals.
func TestCluster16Invitation(t *testing.T) {
	l, hosts := hostRing(t, Config{}, faults.Plan{Seed: 21, DropRate: 0.02}, 16, "invitation", 77)

	// Durable keys, replicated, written before any trouble starts.
	rng := xrand.New(123)
	stored := make([]ids.ID, 32)
	for i := range stored {
		stored[i] = ids.Random(rng)
		if err := nodeClient(hosts[i%16].PrimaryNode()).Put(stored[i], []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// The paper's skewed workload: every task unit lands in one arc, so
	// a single primary starts with all the work and must invite helpers.
	const units = 1024
	loadArc(t, hosts[0].PrimaryNode(), hosts[5].PrimaryNode(), units, 8, rng)

	// Partition a quarter of the identifier space mid-run, let the
	// strategies fight through it, then heal.
	if err := l.Faults().ForcePartition(0.25); err != nil {
		t.Fatal(err)
	}
	for range 32 {
		l.Round()
	}
	l.Faults().Heal()

	p := runToCompletion(t, l, units, 4000)
	if rf := RuntimeFactor(p, units); rf <= 0 {
		t.Fatalf("runtime factor not computed: %+v", p)
	}
	if p.Injections == 0 {
		t.Fatal("invitation strategy never injected a Sybil into the loaded arc")
	}

	// After heal the ring must re-converge and every lookup and every
	// stored key must succeed: success rate exactly 1.0.
	if _, ok := l.Converge(400); !ok {
		t.Fatal("ring did not re-converge after heal")
	}
	lookups, ok := 0, true
	for _, h := range hosts {
		for trial := 0; trial < 4; trial++ {
			if _, _, err := h.PrimaryNode().Lookup(ids.Random(rng)); err != nil {
				t.Errorf("lookup from host %d failed after heal: %v", h.Index(), err)
				ok = false
			}
			lookups++
		}
	}
	for i, k := range stored {
		if _, err := nodeClient(hosts[(i+7)%16].PrimaryNode()).Get(k); err != nil {
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
	l, hosts := hostRing(t, Config{MaxSybils: 2}, faults.Plan{}, 4, "neighbor", 9)
	// Load one arc; the idle neighbors should split it.
	const units = 256
	loadArc(t, hosts[0].PrimaryNode(), hosts[2].PrimaryNode(), units, 4, xrand.New(4))
	if p := runToCompletion(t, l, units, 1000); p.Injections == 0 {
		t.Fatal("neighbor strategy never injected a Sybil")
	}
}

func TestClusterRandomInjectionAndWithdraw(t *testing.T) {
	l, hosts := hostRing(t, Config{}, faults.Plan{}, 4, "random", 13)
	const units = 256
	loadArc(t, hosts[3].PrimaryNode(), hosts[1].PrimaryNode(), units, 4, xrand.New(6))
	if p := runToCompletion(t, l, units, 1000); p.Injections == 0 {
		t.Fatal("random strategy never injected a Sybil")
	}
}

func TestClusterChurnConservesWork(t *testing.T) {
	// Hosts churn from their first decision pass, and the convergence
	// oracle needs a fully settled moment to observe; keep the churn
	// rate low enough that such moments exist between departures.
	l, hosts := hostRing(t, Config{ChurnProb: 0.02}, faults.Plan{}, 4, "churn", 17)
	rng := xrand.New(8)
	const units = 512
	for submitted := 0; submitted < units; submitted += 8 {
		if err := nodeClient(hosts[0].PrimaryNode()).SubmitTask(ids.Random(rng), 8); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// Churn hands residual work to successors on every departure; the
	// collector must still account for every unit at completion.
	runToCompletion(t, l, units, 1000)
	churns := 0
	for _, h := range hosts {
		churns += h.Stats().Churns
	}
	if churns == 0 {
		t.Fatal("induced-churn strategy never churned")
	}
}
