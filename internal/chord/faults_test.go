package chord

import (
	"errors"
	"fmt"
	"testing"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
)

func mustInjector(t testing.TB, p faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestDeadSuccessorDropPath pins the successor-list failover that every
// repair metric depends on: when the working successor and the next
// backup both crash, the node must route to the first surviving backup
// and prune the dead entries from its list.
func TestDeadSuccessorDropPath(t *testing.T) {
	nw := buildRing(t, 24, 5)
	alive := nw.AliveIDs()
	n := nw.nodes[alive[0]]
	list := n.SuccessorList()
	if len(list) < 3 {
		t.Fatalf("successor list too short to test: %v", list)
	}
	// Kill the working successor and the mid-list backup behind it.
	nw.Kill(list[0])
	nw.Kill(list[1])
	succ := n.firstLiveSuccessor()
	if succ == nil {
		t.Fatal("no live successor found despite surviving backups")
	}
	if succ.id != list[2] {
		t.Errorf("failover chose %s, want backup %s", succ.id.Short(), list[2].Short())
	}
	for _, dead := range list[:2] {
		for _, s := range n.SuccessorList() {
			if s == dead {
				t.Errorf("dead successor %s not pruned from list %v", dead.Short(), n.SuccessorList())
			}
		}
	}
	// The drop path must leave the node routable: a lookup through it
	// still resolves.
	if _, _, err := n.Lookup(list[2]); err != nil {
		t.Errorf("lookup after failover: %v", err)
	}
}

// TestZeroPlanTransportInert proves the fault layer is inert when
// disabled: an overlay with a zero-plan injector produces byte-identical
// message accounting to one with no injector at all.
func TestZeroPlanTransportInert(t *testing.T) {
	build := func(inj *faults.Injector) map[string]int {
		nw := NewNetwork(Config{})
		nw.SetFaultInjector(inj)
		g := keys.NewGenerator(11)
		first, err := nw.Create(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 16; i++ {
			if _, err := nw.Join(g.Next(), first); err != nil {
				t.Fatal(err)
			}
			nw.StabilizeAll()
		}
		kg := keys.NewGenerator(99)
		for i := 0; i < 40; i++ {
			if err := first.Put(kg.Next(), fmt.Sprintf("v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		nw.StabilizeAll()
		return nw.msgs
	}
	bare := build(nil)
	zero := build(mustInjector(t, faults.Plan{Seed: 123}))
	if fmt.Sprint(bare) != fmt.Sprint(zero) {
		t.Errorf("zero plan changed message accounting:\n bare: %v\n zero: %v", bare, zero)
	}
}

// TestLossyLookupRetries drives lookups over a 30%-loss transport and
// checks that retries absorb the loss, backoff is accounted, and the
// whole schedule is a pure function of the plan seed.
func TestLossyLookupRetries(t *testing.T) {
	run := func() (TransportStats, int) {
		nw := buildRing(t, 32, 7)
		nw.SetFaultInjector(mustInjector(t, faults.Plan{Seed: 21, DropRate: 0.3}))
		before := nw.TransportStats()
		g := keys.NewGenerator(5)
		start := nw.nodes[nw.AliveIDs()[0]]
		okCount := 0
		for i := 0; i < 60; i++ {
			if _, _, err := start.Lookup(g.Next()); err == nil {
				okCount++
			}
		}
		st := nw.TransportStats()
		st.Lookups -= before.Lookups // ring construction counts too
		st.LookupFailures -= before.LookupFailures
		return st, okCount
	}
	st, ok := run()
	if st.Drops == 0 || st.Retries == 0 {
		t.Fatalf("30%% loss produced no drops/retries: %+v", st)
	}
	if st.BackoffTicks == 0 {
		t.Error("retries accounted no backoff ticks")
	}
	if ok == 0 {
		t.Error("every lookup failed despite a 3-retry budget over 30% loss")
	}
	if st.Lookups != 60 {
		t.Errorf("lookup attempts = %d, want 60", st.Lookups)
	}
	st2, ok2 := run()
	if st != st2 || ok != ok2 {
		t.Errorf("same seed, different transport outcome:\n %+v (%d ok)\n %+v (%d ok)", st, ok, st2, ok2)
	}
}

// TestTotalLossTimesOut: with DropRate 1 every RPC exhausts its retry
// budget and surfaces ErrTimeout.
func TestTotalLossTimesOut(t *testing.T) {
	nw := buildRing(t, 16, 3)
	nw.SetFaultInjector(mustInjector(t, faults.Plan{Seed: 1, DropRate: 1, MaxRetries: 2}))
	before := nw.TransportStats()
	start := nw.nodes[nw.AliveIDs()[0]]
	// A key owned by a remote node forces at least one hop.
	target := nw.AliveIDs()[8]
	_, _, err := start.Lookup(target)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("lookup error = %v, want ErrTimeout", err)
	}
	st := nw.TransportStats()
	if st.Timeouts == 0 {
		t.Error("no timeouts recorded")
	}
	// Each timed-out send is 1 original + MaxRetries retransmissions.
	if st.Retries != st.Timeouts*2 {
		t.Errorf("retries = %d, want 2 per timeout (%d timeouts)", st.Retries, st.Timeouts)
	}
	// Every lookup attempted under total loss failed (earlier fault-free
	// lookups from ring construction are excluded via the delta).
	if got, want := st.LookupFailures-before.LookupFailures, st.Lookups-before.Lookups; got != want {
		t.Errorf("lookup failures = %d, want every attempt (%d) to fail", got, want)
	}
}

// TestPartitionBlocksThenHeals: a forced two-sided partition makes
// cross-cut traffic fail without evicting anyone; healing restores full
// service with no merge protocol.
func TestPartitionBlocksThenHeals(t *testing.T) {
	nw := buildRing(t, 32, 9)
	inj := mustInjector(t, faults.Plan{Seed: 4})
	nw.SetFaultInjector(inj)
	// Store keys across the whole space first.
	start := nw.nodes[nw.AliveIDs()[0]]
	kg := keys.NewGenerator(77)
	stored := make([]ids.ID, 0, 30)
	for i := 0; i < 30; i++ {
		k := kg.Next()
		if err := start.Put(k, "v"); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, k)
	}
	if err := inj.ForcePartition(0.5); err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, k := range stored {
		if _, err := start.Get(k); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no gets failed under a half-space partition")
	}
	if nw.TransportStats().PartitionRefusals == 0 {
		t.Error("no partition refusals recorded")
	}
	// Maintenance under partition must not destroy the ring: suspected
	// peers are skipped, not evicted.
	for i := 0; i < 8; i++ {
		nw.StabilizeAll()
	}
	inj.Heal()
	if _, ok := nw.StabilizeUntilConverged(64); !ok {
		t.Fatalf("ring did not reconverge after heal: %v", nw.VerifyRing())
	}
	for _, k := range stored {
		if _, err := start.Get(k); err != nil {
			t.Errorf("get %s after heal: %v", k.Short(), err)
		}
	}
}

// waveReport is one failure wave's outcome: the repair rounds it took
// and the post-repair audit of every tracked key.
type waveReport struct {
	Rounds                               int
	Converged                            bool
	KeysTracked, KeysRecovered, KeysLost int
	ProbeFailures                        int
}

// TestFailureWaveReplicationSavesKeys is the acceptance check at protocol
// level: with default replication a modest crash wave loses nothing and
// repairs in finite time; with replication disabled the same wave loses
// keys.
func TestFailureWaveReplicationSavesKeys(t *testing.T) {
	wave := func(replicas int) waveReport {
		nw := NewNetwork(Config{Replicas: replicas})
		g := keys.NewGenerator(13)
		first, err := nw.Create(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 40; i++ {
			if _, err := nw.Join(g.Next(), first); err != nil {
				t.Fatal(err)
			}
			nw.StabilizeAll()
		}
		if _, ok := nw.StabilizeUntilConverged(200); !ok {
			t.Fatal("ring did not converge")
		}
		nw.FixAllFingers()
		kg := keys.NewGenerator(55)
		for i := 0; i < 120; i++ {
			if err := first.Put(kg.Next(), fmt.Sprintf("v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		// Let replica repair settle, then crash every third node.
		nw.StabilizeAll()
		alive := nw.AliveIDs()
		for i := 1; i < len(alive); i += 3 {
			nw.Kill(alive[i])
		}
		var rep waveReport
		rep.Rounds, rep.Converged = nw.StabilizeUntilConverged(400)
		rep.KeysRecovered, rep.KeysLost, rep.ProbeFailures = nw.ProbeKeys()
		rep.KeysTracked = len(nw.registry)
		return rep
	}

	rep := wave(0) // default: 3 replicas
	if !rep.Converged {
		t.Fatalf("replicated overlay did not repair: %+v", rep)
	}
	if rep.Rounds <= 0 {
		t.Errorf("time-to-repair = %d rounds, want finite positive", rep.Rounds)
	}
	if rep.KeysLost != 0 || rep.ProbeFailures != 0 {
		t.Errorf("replication lost keys: %+v", rep)
	}
	if rep.KeysRecovered != rep.KeysTracked {
		t.Errorf("recovered %d of %d tracked keys", rep.KeysRecovered, rep.KeysTracked)
	}

	unrep := wave(-1) // replication disabled
	if unrep.KeysLost == 0 {
		t.Errorf("no replication but zero keys lost: %+v", unrep)
	}
	if unrep.KeysLost+unrep.KeysRecovered+unrep.ProbeFailures != unrep.KeysTracked {
		t.Errorf("audit does not partition tracked keys: %+v", unrep)
	}
}

// TestRunChaosDeterministic: the multi-tick chaos driver is a pure
// function of (overlay seed, fault plan).
func TestRunChaosDeterministic(t *testing.T) {
	run := func() ChaosReport {
		nw := buildRing(t, 24, 17)
		nw.FixAllFingers()
		kg := keys.NewGenerator(31)
		start := nw.nodes[nw.AliveIDs()[0]]
		for i := 0; i < 50; i++ {
			if err := start.Put(kg.Next(), "v"); err != nil {
				t.Fatal(err)
			}
		}
		nw.SetFaultInjector(mustInjector(t, faults.Plan{
			Seed: 6, CrashRate: 0.01, BurstEvery: 10, BurstSize: 2, DropRate: 0.05,
		}))
		return nw.RunChaos(40, 300)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same plan, different chaos outcome:\n %+v\n %+v", a, b)
	}
	if a.Crashed == 0 || a.Waves == 0 {
		t.Fatalf("chaos run crashed nothing: %+v", a)
	}
	if a.MeanTimeToRepair() <= 0 {
		t.Errorf("mean time-to-repair = %v, want positive", a.MeanTimeToRepair())
	}
	if a.KeysTracked != 50 {
		t.Errorf("tracked keys = %d, want 50", a.KeysTracked)
	}
	// Default replication should carry most keys through this gentle
	// chaos; assert the audit at least accounts for every key.
	if a.KeysLost+a.KeysRecovered+a.ProbeFailures != a.KeysTracked {
		t.Errorf("audit does not partition tracked keys: %+v", a)
	}
}
