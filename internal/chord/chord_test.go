package chord

import (
	"fmt"
	"math"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

// buildRing creates a converged n-node overlay with deterministic IDs.
func buildRing(t testing.TB, n int, seed uint64) *Network {
	t.Helper()
	nw := NewNetwork(Config{})
	g := keys.NewGenerator(seed)
	first, err := nw.Create(g.Next())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if _, err := nw.Join(g.Next(), first); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nw.StabilizeAll()
	}
	if _, ok := nw.StabilizeUntilConverged(4 * n); !ok {
		t.Fatalf("%d-node ring did not converge: %v", n, nw.VerifyRing())
	}
	return nw
}

func TestCreateSingleNode(t *testing.T) {
	nw := NewNetwork(Config{})
	n, err := nw.Create(ids.FromUint64(42))
	if err != nil {
		t.Fatal(err)
	}
	if n.Successor() != n.ID() {
		t.Error("lone node must be its own successor")
	}
	owner, hops, err := n.Lookup(ids.FromUint64(7))
	if err != nil || owner != n || hops != 0 {
		t.Errorf("lone lookup = %v, %d, %v", owner, hops, err)
	}
	if _, err := nw.Create(ids.FromUint64(42)); err != ErrDuplicate {
		t.Errorf("duplicate create: %v", err)
	}
}

func TestJoinConverges(t *testing.T) {
	nw := buildRing(t, 16, 1)
	if err := nw.VerifyRing(); err != nil {
		t.Fatal(err)
	}
	alive := nw.AliveIDs()
	if len(alive) != 16 {
		t.Fatalf("alive = %d", len(alive))
	}
	for i := 1; i < len(alive); i++ {
		if !alive[i-1].Less(alive[i]) {
			t.Fatal("AliveIDs not sorted")
		}
	}
}

func TestJoinDuplicateAndDeadBootstrap(t *testing.T) {
	nw := buildRing(t, 4, 2)
	alive := nw.AliveIDs()
	first := nw.Node(alive[0])
	if _, err := nw.Join(alive[1], first); err != ErrDuplicate {
		t.Errorf("duplicate join: %v", err)
	}
	nw.Kill(alive[0])
	if _, err := nw.Join(ids.FromUint64(1), first); err != ErrDead {
		t.Errorf("dead bootstrap: %v", err)
	}
}

func TestLookupMatchesOracle(t *testing.T) {
	nw := buildRing(t, 32, 3)
	nw.FixAllFingers()
	alive := nw.AliveIDs()
	start := nw.Node(alive[0])
	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		key := ids.Random(rng)
		got, _, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleOwner(alive, key)
		if got.ID() != want {
			t.Fatalf("Lookup(%s) = %s, want %s", key.Short(), got.ID().Short(), want.Short())
		}
	}
}

func oracleOwner(sorted []ids.ID, key ids.ID) ids.ID {
	for _, id := range sorted {
		if key.Compare(id) <= 0 {
			return id
		}
	}
	return sorted[0]
}

func TestLookupHopsLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("ring construction is slow")
	}
	nw := buildRing(t, 64, 4)
	nw.FixAllFingers()
	alive := nw.AliveIDs()
	rng := xrand.New(5)
	totalHops := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		start := nw.Node(alive[rng.Intn(len(alive))])
		_, hops, err := start.Lookup(ids.Random(rng))
		if err != nil {
			t.Fatal(err)
		}
		totalHops += hops
	}
	mean := float64(totalHops) / trials
	// Chord's bound is 1/2 log2 n = 3 for n=64; allow up to 2x slack.
	if limit := math.Log2(64); mean > limit {
		t.Errorf("mean hops = %.2f, want <= log2(n) = %.1f", mean, limit)
	}
	if mean == 0 {
		t.Error("zero mean hops is implausible for 64 nodes")
	}
}

func TestPutGet(t *testing.T) {
	nw := buildRing(t, 10, 6)
	entry := nw.Node(nw.AliveIDs()[0])
	g := keys.NewGenerator(77)
	stored := map[ids.ID]string{}
	for i := 0; i < 50; i++ {
		k := g.Next()
		v := fmt.Sprintf("value-%d", i)
		if err := entry.Put(k, v); err != nil {
			t.Fatal(err)
		}
		stored[k] = v
	}
	for k, want := range stored {
		got, err := entry.Get(k)
		if err != nil || got != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", k.Short(), got, err, want)
		}
	}
	if _, err := entry.Get(ids.FromUint64(12345)); err != ErrNotFound {
		t.Errorf("missing key: %v", err)
	}
}

func TestFailureRecoveryRouting(t *testing.T) {
	nw := buildRing(t, 20, 7)
	nw.FixAllFingers()
	alive := nw.AliveIDs()
	// Kill 5 spread-out nodes (never the entry node).
	for i := 1; i <= 5; i++ {
		nw.Kill(alive[i*3])
	}
	entry := nw.Node(alive[0])
	// Routing heals after stabilization rounds.
	if _, ok := nw.StabilizeUntilConverged(100); !ok {
		t.Fatalf("ring did not heal: %v", nw.VerifyRing())
	}
	rng := xrand.New(8)
	for i := 0; i < 100; i++ {
		key := ids.Random(rng)
		got, _, err := entry.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleOwner(nw.AliveIDs(), key); got.ID() != want {
			t.Fatalf("post-failure lookup %s -> %s, want %s",
				key.Short(), got.ID().Short(), want.Short())
		}
	}
}

func TestDataSurvivesFailures(t *testing.T) {
	nw := buildRing(t, 20, 9)
	nw.FixAllFingers()
	alive := nw.AliveIDs()
	entry := nw.Node(alive[0])
	g := keys.NewGenerator(11)
	stored := map[ids.ID]string{}
	for i := 0; i < 100; i++ {
		k := g.Next()
		v := fmt.Sprintf("v%d", i)
		if err := entry.Put(k, v); err != nil {
			t.Fatal(err)
		}
		stored[k] = v
	}
	// Run replica repair so every primary has pushed to its successors.
	nw.StabilizeAll()
	// Crash 4 non-adjacent nodes (fewer than Replicas adjacent failures).
	nw.Kill(alive[2])
	nw.Kill(alive[7])
	nw.Kill(alive[12])
	nw.Kill(alive[17])
	if _, ok := nw.StabilizeUntilConverged(100); !ok {
		t.Fatalf("ring did not heal: %v", nw.VerifyRing())
	}
	lost := 0
	for k, want := range stored {
		got, err := entry.Get(k)
		if err != nil || got != want {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("lost %d/%d keys after 4 failures with 3 replicas", lost, len(stored))
	}
}

func TestGracefulLeave(t *testing.T) {
	nw := buildRing(t, 10, 12)
	alive := nw.AliveIDs()
	entry := nw.Node(alive[0])
	g := keys.NewGenerator(13)
	stored := map[ids.ID]string{}
	for i := 0; i < 40; i++ {
		k := g.Next()
		stored[k] = fmt.Sprintf("x%d", i)
		if err := entry.Put(k, stored[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Leave(alive[5]); err != nil {
		t.Fatal(err)
	}
	if err := nw.Leave(alive[5]); err != ErrDead {
		t.Errorf("double leave: %v", err)
	}
	if _, ok := nw.StabilizeUntilConverged(60); !ok {
		t.Fatalf("ring did not heal after leave: %v", nw.VerifyRing())
	}
	for k, want := range stored {
		got, err := entry.Get(k)
		if err != nil || got != want {
			t.Fatalf("key %s lost after graceful leave", k.Short())
		}
	}
}

func TestMessageAccounting(t *testing.T) {
	nw := buildRing(t, 8, 14)
	msgs := nw.msgs
	for _, kind := range []string{"join", "stabilize", "notify"} {
		if msgs[kind] == 0 {
			t.Errorf("no %q messages recorded", kind)
		}
	}
	if nw.TotalMessages() == 0 {
		t.Error("total must be positive")
	}
	entry := nw.Node(nw.AliveIDs()[0])
	before := nw.TotalMessages()
	if err := entry.Put(ids.FromUint64(5), "v"); err != nil {
		t.Fatal(err)
	}
	if nw.TotalMessages() <= before {
		t.Error("Put must cost messages")
	}
}

func TestVerifyRingDetectsDamage(t *testing.T) {
	nw := buildRing(t, 6, 15)
	alive := nw.AliveIDs()
	// Corrupt one node's successor pointer.
	n := nw.Node(alive[0])
	n.succList = []ids.ID{alive[3]}
	if err := nw.VerifyRing(); err == nil {
		t.Error("VerifyRing must detect a wrong successor")
	}
}

func TestLookupFromDeadNode(t *testing.T) {
	nw := buildRing(t, 4, 16)
	alive := nw.AliveIDs()
	n := nw.Node(alive[1])
	nw.Kill(alive[1])
	if _, _, err := n.Lookup(ids.FromUint64(1)); err != ErrDead {
		t.Errorf("lookup from dead node: %v", err)
	}
}

func TestSortIDs(t *testing.T) {
	rng := xrand.New(55)
	for _, n := range []int{0, 1, 2, 11, 12, 13, 100, 500} {
		xs := make([]ids.ID, n)
		for i := range xs {
			xs[i] = ids.Random(rng)
		}
		sortIDs(xs)
		for i := 1; i < len(xs); i++ {
			if xs[i].Less(xs[i-1]) {
				t.Fatalf("n=%d not sorted at %d", n, i)
			}
		}
	}
}

func BenchmarkLookup64(b *testing.B) {
	nw := buildRing(b, 64, 20)
	nw.FixAllFingers()
	entry := nw.Node(nw.AliveIDs()[0])
	rng := xrand.New(21)
	probes := make([]ids.ID, 256)
	for i := range probes {
		probes[i] = ids.Random(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := entry.Lookup(probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
	}
}
