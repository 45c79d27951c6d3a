package netchord

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"chordbalance/internal/adversary"
	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// lockstepRing builds a converged n-node lockstep ring with IDs from
// seed.
func lockstepRing(t testing.TB, cfg Config, plan faults.Plan, n int, seed uint64) *Lockstep {
	t.Helper()
	l, err := NewLockstep(cfg, plan, n, keys.NewGenerator(seed).Next)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// oracleOwner returns key's successor among the live nodes.
func oracleOwner(l *Lockstep, key ids.ID) ids.ID {
	for _, n := range l.Nodes() {
		if key.Compare(n.ID()) <= 0 {
			return n.ID()
		}
	}
	return l.Nodes()[0].ID()
}

// putKeys stores count generated keys through the driver's client and
// returns them with their values.
func putKeys(t *testing.T, l *Lockstep, count int, seed uint64) map[ids.ID]string {
	t.Helper()
	g := keys.NewGenerator(seed)
	stored := make(map[ids.ID]string, count)
	c := l.Client()
	for i := 0; i < count; i++ {
		k, v := g.Next(), fmt.Sprintf("v%d", i)
		if err := c.Put(k, []byte(v)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		stored[k] = v
	}
	return stored
}

// sortedKeys returns m's keys in ring order.
func sortedKeys(m map[ids.ID]string) []ids.ID {
	out := make([]ids.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, ids.ID.Compare)
	return out
}

// lostKeys counts stored keys the ring no longer returns.
func lostKeys(l *Lockstep, stored map[ids.ID]string) int {
	c := l.Client()
	lost := 0
	for _, k := range sortedKeys(stored) {
		if v, err := c.Get(k); err != nil || string(v) != stored[k] {
			lost++
		}
	}
	return lost
}

func TestCreateSingleNode(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 1, 1)
	n := l.Nodes()[0]
	if n.Successor().ID != n.ID() {
		t.Error("lone node must be its own successor")
	}
	owner, hops, err := n.Lookup(ids.FromUint64(7))
	if err != nil || owner.ID != n.ID() || hops != 0 {
		t.Errorf("lone lookup = %v, %d, %v", owner, hops, err)
	}
}

func TestJoinDuplicateAndDeadBootstrap(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 4, 2)
	if _, err := l.Join(l.Nodes()[1].ID()); err == nil {
		t.Error("duplicate join must fail")
	}
	for len(l.Nodes()) > 0 {
		if err := l.Kill(l.Nodes()[0].ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Join(ids.FromUint64(1)); err == nil {
		t.Error("join with no live node must fail")
	}
}

// checkOracle looks up 100 random keys, from every node in turn, and
// requires each to resolve to the oracle owner.
func checkOracle(t *testing.T, l *Lockstep) {
	t.Helper()
	rng := xrand.New(99)
	for trial := 0; trial < 100; trial++ {
		key := ids.Random(rng)
		got, _, err := l.Nodes()[trial%len(l.Nodes())].Lookup(key)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if want := oracleOwner(l, key); got.ID != want {
			t.Fatalf("Lookup(%s) = %s, want %s", key.Short(), got.ID.Short(), want.Short())
		}
	}
}

func TestJoinConverges(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 16, 1)
	if !l.Converged() || len(l.Nodes()) != 16 {
		t.Fatalf("converged=%v with %d nodes", l.Converged(), len(l.Nodes()))
	}
	for i := 1; i < len(l.Nodes()); i++ {
		if !l.Nodes()[i-1].ID().Less(l.Nodes()[i].ID()) {
			t.Fatal("Nodes not in ring order")
		}
	}
}

func TestVerifyRingDetectsDamage(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 6, 15)
	n := l.Nodes()[0]
	n.mu.Lock()
	n.succ = []wire.NodeRef{l.Nodes()[3].Ref()}
	n.mu.Unlock()
	if l.Converged() {
		t.Error("Converged must detect a wrong successor")
	}
}

func TestLookupMatchesOracle(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 32, 3)
	l.FixFingers()
	checkOracle(t, l)
}

// TestFailureRecoveryRouting crashes five spread-out nodes: once the
// ring heals, every lookup resolves to the surviving owner.
func TestFailureRecoveryRouting(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 20, 7)
	l.FixFingers()
	alive := append([]*Node(nil), l.Nodes()...)
	for i := 1; i <= 5; i++ {
		if err := l.Kill(alive[i*3].ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := l.Converge(100); !ok {
		t.Fatal("ring did not heal after crashes")
	}
	checkOracle(t, l)
}

// TestDeadSuccessorDropPath pins the successor-list failover: when the
// working successor and the next backup both crash, one stabilize
// round moves the node to the first surviving backup and prunes the
// dead entries.
func TestDeadSuccessorDropPath(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 24, 5)
	n := l.Nodes()[0]
	list := n.SuccessorList()
	for _, dead := range list[:2] {
		if err := l.Kill(dead.ID); err != nil {
			t.Fatal(err)
		}
	}
	n.stabilizeOnce()
	if got := n.Successor(); got.ID != list[2].ID {
		t.Errorf("failover chose %s, want backup %s", got.ID.Short(), list[2].ID.Short())
	}
	for _, s := range n.SuccessorList() {
		if s.ID == list[0].ID || s.ID == list[1].ID {
			t.Errorf("dead successor %s not pruned", s.ID.Short())
		}
	}
	if _, _, err := n.Lookup(list[2].ID); err != nil {
		t.Errorf("lookup after failover: %v", err)
	}
}

// TestLookupTraceMatchesLookup checks that a traced lookup takes the
// route an untraced one reports: same owner, len(path)-1 hops, starting
// at the tracing node.
func TestLookupTraceMatchesLookup(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 16, 4)
	l.FixFingers()
	start := l.Nodes()[0]
	rng := xrand.New(5)
	for i := 0; i < 50; i++ {
		key := ids.Random(rng)
		owner, hops, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		towner, path, err := start.LookupTrace(key)
		if err != nil {
			t.Fatal(err)
		}
		if towner != owner || len(path)-1 != hops || path[0].ID != start.ID() {
			t.Fatalf("trace %v => %s, lookup %s in %d hops", path, towner.ID.Short(), owner.ID.Short(), hops)
		}
	}
}

// TestDataSurvivesFailures crashes four spread-out nodes of a ring
// holding three copies of each key: no key may be lost.
func TestDataSurvivesFailures(t *testing.T) {
	l := lockstepRing(t, Config{Replicas: 3}, faults.Plan{}, 20, 9)
	stored := putKeys(t, l, 100, 11)
	alive := append([]*Node(nil), l.Nodes()...)
	for _, i := range []int{2, 7, 12, 17} {
		if err := l.Kill(alive[i].ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := l.Converge(100); !ok {
		t.Fatal("ring did not heal")
	}
	if lost := lostKeys(l, stored); lost > 0 {
		t.Errorf("lost %d/%d keys after 4 failures with 3 copies", lost, len(stored))
	}
}

// TestFailureWaveReplicationSavesKeys crashes every third node of a
// 40-node ring at once: with three copies no key is lost, and with
// one copy (the owner's alone) keys are.
func TestFailureWaveReplicationSavesKeys(t *testing.T) {
	wave := func(replicas int) int {
		l := lockstepRing(t, Config{Replicas: replicas}, faults.Plan{}, 40, 13)
		stored := putKeys(t, l, 120, 7)
		alive := append([]*Node(nil), l.Nodes()...)
		for i := 1; i < len(alive); i += 3 {
			if err := l.Kill(alive[i].ID()); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := l.Converge(200); !ok {
			t.Fatalf("replicas=%d: ring did not heal", replicas)
		}
		return lostKeys(l, stored)
	}
	if lost := wave(3); lost != 0 {
		t.Errorf("three copies lost %d keys to a one-in-three crash wave", lost)
	}
	if lost := wave(1); lost == 0 {
		t.Error("one copy lost no keys to a one-in-three crash wave")
	}
}

// TestGracefulLeave checks that a departing node hands its keys on.
func TestGracefulLeave(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 10, 12)
	stored := putKeys(t, l, 40, 13)
	id := l.Nodes()[5].ID()
	if err := l.Leave(id); err != nil {
		t.Fatal(err)
	}
	if err := l.Leave(id); err == nil {
		t.Error("double leave must fail")
	}
	if _, ok := l.Converge(60); !ok {
		t.Fatal("ring did not heal after leave")
	}
	if lost := lostKeys(l, stored); lost > 0 {
		t.Errorf("lost %d keys after a graceful leave", lost)
	}
	if _, err := l.Client().Get(ids.FromUint64(12345)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
}

// TestJoinGiftConfirmedAfterStaleLookup joins a node through a stale
// lookup: the giver's predecessor sits between it and the joiner, so
// the joiner's stabilization links it to that predecessor instead. The
// giver must still learn that its gift arrived, or the gift leaves
// with the giver and its task units count twice.
func TestJoinGiftConfirmedAfterStaleLookup(t *testing.T) {
	at := []float64{0.1, 0.6} // the ring: p, then the giver
	l, err := NewLockstep(Config{}, faults.Plan{}, 2, func() ids.ID {
		id := adversary.IDAtFraction(at[0])
		at = at[1:]
		return id
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	giver := l.Nodes()[1]
	giver.mu.Lock()
	giver.addTaskLocked(giver.ID(), 40)
	giver.mu.Unlock()
	// x becomes the giver's predecessor; p still names the giver its
	// successor, so a lookup through p for j's ID ends at the giver.
	x, err := l.Join(adversary.IDAtFraction(0.5))
	if err != nil {
		t.Fatal(err)
	}
	j, err := l.Join(adversary.IDAtFraction(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if j.Successor().ID != x.ID() || j.TaskUnits() != 40 {
		t.Fatalf("joiner's successor %s with %d units, want x with the giver's 40", j.Successor().ID.Short(), j.TaskUnits())
	}
	if err := l.Leave(giver.ID()); err != nil {
		t.Fatal(err)
	}
	var units uint64
	for _, n := range l.Nodes() {
		units += n.TaskUnits()
	}
	if units != 40 {
		t.Errorf("ring holds %d task units after the giver left, want 40", units)
	}
}

// TestPartitionBlocksThenHeals cuts the ring in two: lookups that must
// cross the cut fail, and after the heal the ring reconverges and every
// key is readable again.
func TestPartitionBlocksThenHeals(t *testing.T) {
	l := lockstepRing(t, Config{Replicas: 3}, faults.Plan{Seed: 4}, 24, 9)
	stored := putKeys(t, l, 30, 77)
	nf := l.Faults()
	if err := nf.ForcePartition(0.5); err != nil {
		t.Fatal(err)
	}
	start := l.Nodes()[0]
	failed := 0
	for _, k := range sortedKeys(stored) {
		if _, _, err := start.Lookup(k); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no lookup failed across an active partition")
	}
	for i := 0; i < 5; i++ {
		l.Round()
	}
	nf.Heal()
	if _, ok := l.Converge(200); !ok {
		t.Fatal("ring did not reconverge after the heal")
	}
	if lost := lostKeys(l, stored); lost > 0 {
		t.Errorf("lost %d keys across partition and heal", lost)
	}
}

// TestLockstepSameSeedSameRun runs one scripted lockstep session twice
// at 10% frame loss with crash bursts, and one session of hosts running
// a strategy twice: every RPC, fault and host counter must repeat
// exactly. It passes under -race too: a lockstep run is driven from one
// goroutine, so no two RPCs ever race for a fault decision.
func TestLockstepSameSeedSameRun(t *testing.T) {
	type result struct {
		rpc     RPCStats
		faults  NetFaultStats
		dead    int
		lost    int
		rounds  int
		keysOut int
	}
	run := func() result {
		l := lockstepRing(t, Config{Replicas: 3}, faults.Plan{}, 16, 17)
		stored := putKeys(t, l, 20, 31)
		if err := l.Faults().SetPlan(faults.Plan{Seed: 6, DropRate: 0.1, CrashRate: 0.01, BurstEvery: 5, BurstSize: 1}); err != nil {
			t.Fatal(err)
		}
		var r result
		for tick := 0; tick < 12; tick++ {
			if len(l.ChaosTick()) == 0 {
				l.Round()
				continue
			}
			n, _ := l.Converge(100)
			r.rounds += n
		}
		r.lost = lostKeys(l, stored)
		r.rpc, r.faults, r.dead = l.RPC(), l.Faults().Stats(), l.Dead()
		for _, n := range l.Nodes() {
			r.keysOut += n.KeyCount()
		}
		return r
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", first, second)
	}
	if first.faults.Drops == 0 || first.rpc.Retries == 0 || first.dead == 0 {
		t.Fatalf("the plan injected nothing: %+v", first)
	}

	// A host session: 16 invitation hosts at 2% frame loss with the
	// density scan on, one arc loaded, and one forced partition and heal.
	// Their strategies' RPCs, the invitations they answer and the
	// evictions they obey all repeat too.
	type hostResult struct {
		hosts     []HostStats
		collector wire.Stats
		rpc       RPCStats
	}
	hostRun := func() hostResult {
		l, hosts := hostRing(t, Config{DensityThreshold: 8}, faults.Plan{Seed: 6, DropRate: 0.02}, 16, "invitation", 19)
		loadArc(t, hosts[0].PrimaryNode(), hosts[3].PrimaryNode(), 512, 8, xrand.New(3))
		for r := range 48 {
			switch r {
			case 8:
				if err := l.Faults().ForcePartition(0.25); err != nil {
					t.Fatal(err)
				}
			case 24:
				l.Faults().Heal()
			}
			l.Round()
		}
		var r hostResult
		for _, h := range hosts {
			r.hosts = append(r.hosts, h.Stats())
		}
		r.collector, r.rpc = l.Collector().Stats(), l.RPC()
		return r
	}
	hfirst, hsecond := hostRun(), hostRun()
	if !slices.Equal(hfirst.hosts, hsecond.hosts) || hfirst.collector != hsecond.collector || hfirst.rpc != hsecond.rpc {
		t.Fatalf("same seed, different host runs:\n%+v\n%+v", hfirst, hsecond)
	}
	evictions := 0
	for _, st := range hfirst.hosts {
		evictions += st.Evictions
	}
	if hfirst.collector.Injections == 0 || evictions == 0 || hfirst.rpc.PartitionRefusals == 0 {
		t.Fatalf("the host session injected, evicted or refused nothing: %+v", hfirst)
	}
}

func TestPutGet(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 10, 6)
	stored := putKeys(t, l, 50, 77)
	if lost := lostKeys(l, stored); lost > 0 {
		t.Fatalf("%d of %d keys unreadable", lost, len(stored))
	}
	if _, err := l.Client().Get(ids.FromUint64(12345)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
}

// TestMessageAccounting checks that building a ring and writing to it
// are charged as RPCs.
func TestMessageAccounting(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 8, 14)
	before := l.RPC().Calls
	if before == 0 {
		t.Fatal("building a ring cost no RPCs")
	}
	if err := l.Client().Put(ids.FromUint64(5), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if l.RPC().Calls <= before {
		t.Error("a put must cost RPCs")
	}
}

// TestKeyDistributionConserves checks that every stored key has
// exactly one primary owner: the primary counts, keys in each node's
// arc (predecessor, self], sum to the keys stored.
func TestKeyDistributionConserves(t *testing.T) {
	l := lockstepRing(t, Config{}, faults.Plan{}, 10, 35)
	stored := putKeys(t, l, 80, 36)
	primary := 0
	nodes := l.Nodes()
	for i, n := range nodes {
		pred := nodes[(i+len(nodes)-1)%len(nodes)].ID()
		for _, k := range n.Store().Keys() {
			if ids.BetweenRightIncl(k, pred, n.ID()) {
				primary++
			}
		}
	}
	if primary != len(stored) {
		t.Errorf("primary keys sum to %d, want %d", primary, len(stored))
	}
}

// TestEveryKeyHasReplicasCopies checks replica placement: on a ring
// larger than the replica set, an acknowledged key is stored exactly
// Config.Replicas times.
func TestEveryKeyHasReplicasCopies(t *testing.T) {
	l := lockstepRing(t, Config{Replicas: 4}, faults.Plan{}, 12, 33)
	stored := putKeys(t, l, 60, 34)
	l.Round()
	entries := 0
	for _, n := range l.Nodes() {
		entries += n.KeyCount()
	}
	if entries != 4*len(stored) {
		t.Errorf("%d stored entries for %d keys, want 4 copies each", entries, len(stored))
	}
}

// TestLossyLookupRetries routes lookups across 30% frame loss: retries
// absorb most drops, and two runs from the same seed agree exactly.
func TestLossyLookupRetries(t *testing.T) {
	run := func() (RPCStats, int) {
		l := lockstepRing(t, Config{}, faults.Plan{}, 16, 7)
		if err := l.Faults().SetPlan(faults.Plan{Seed: 21, DropRate: 0.3}); err != nil {
			t.Fatal(err)
		}
		g := keys.NewGenerator(5)
		ok := 0
		for i := 0; i < 40; i++ {
			if _, _, err := l.Nodes()[0].Lookup(g.Next()); err == nil {
				ok++
			}
		}
		return l.RPC(), ok
	}
	st, ok := run()
	if st.Retries == 0 {
		t.Fatal("30% loss caused no retries")
	}
	if ok < 30 {
		t.Errorf("only %d/40 lookups survived 30%% loss with retries", ok)
	}
	if st2, ok2 := run(); st2 != st || ok2 != ok {
		t.Errorf("same seed, different runs: %+v/%d vs %+v/%d", st, ok, st2, ok2)
	}
}

// TestTotalLossTimesOut drops every frame: a lookup that must leave
// its node exhausts its retries and times out, at once rather than
// after the RPC deadline.
func TestTotalLossTimesOut(t *testing.T) {
	l := lockstepRing(t, Config{MaxRetries: 2}, faults.Plan{}, 16, 3)
	if err := l.Faults().SetPlan(faults.Plan{Seed: 1, DropRate: 1}); err != nil {
		t.Fatal(err)
	}
	before := l.RPC()
	if _, _, err := l.Nodes()[0].Lookup(l.Nodes()[8].ID()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("lookup error = %v, want ErrTimeout", err)
	}
	st := l.RPC()
	if st.Timeouts == before.Timeouts || st.Retries-before.Retries < 2 {
		t.Errorf("rpc stats %+v after %+v: want a timeout after 2 retries", st, before)
	}
}

// TestZeroPlanTransportInert proves the fault layer is inert without
// fault rates: a plan with only a seed and a retry budget leaves every
// RPC counter of a lockstep run identical to the zero plan's.
func TestZeroPlanTransportInert(t *testing.T) {
	run := func(plan faults.Plan) (RPCStats, NetFaultStats) {
		l := lockstepRing(t, Config{}, plan, 16, 11)
		putKeys(t, l, 20, 12)
		for i := 0; i < 4; i++ {
			l.Round()
		}
		return l.RPC(), l.Faults().Stats()
	}
	zero, zf := run(faults.Plan{})
	seeded, sf := run(faults.Plan{Seed: 99, MaxRetries: 7, BackoffBase: 3})
	if zero != seeded || zf != sf || zf != (NetFaultStats{}) {
		t.Errorf("zero plan %+v %+v, seeded %+v %+v", zero, zf, seeded, sf)
	}
}
