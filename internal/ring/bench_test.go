package ring

// Micro-benchmarks and allocation guards for the ring hot paths. The
// macro numbers live in benchmarks/ (whole-trial build and tick-loop
// cost, benchmarks/README.md); these isolate the individual operations
// the O(1)-hot-path work targeted so a regression can be localized
// without re-profiling the full engine. The
// zero-alloc guards are ordinary tests, so `go test ./internal/ring`
// fails immediately if Succ, PredID, Get, or Consume ever start allocating.

import (
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
)

// benchSink defeats dead-code elimination in the loops below.
var benchSink ids.ID

// buildRing returns a ring of n nodes with deterministic SHA-1 IDs and,
// when tasks > 0, that many task keys seeded onto it.
func buildRing(tb testing.TB, n, tasks int) (*Ring[int], []*Node[int]) {
	tb.Helper()
	g := keys.NewGenerator(1)
	nodeIDs := make([]ids.ID, n)
	data := make([]int, n)
	for i := range nodeIDs {
		nodeIDs[i] = g.Next()
		data[i] = i
	}
	r := New[int]()
	nodes, err := r.Build(nodeIDs, data)
	if err != nil {
		tb.Fatal(err)
	}
	if tasks > 0 {
		if err := r.Seed(g.TaskKeys(tasks)); err != nil {
			tb.Fatal(err)
		}
	}
	return r, nodes
}

// BenchmarkRingSucc measures the steady-state successor walk: with valid
// index hints every call is a bounds check plus a modular increment.
func BenchmarkRingSucc(b *testing.B) {
	r, nodes := buildRing(b, 10_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = r.Succ(nodes[i%len(nodes)], 1).ID()
	}
}

// benchWindow is how many timed Insert/Remove iterations run against one
// ring before it is rebuilt off the clock. Rebuilding keeps the ring size
// bounded, so the O(size) node-slice splice inside each operation stays
// constant instead of scaling with b.N.
const benchWindow = 4096

// BenchmarkRingInsert measures a join against a populated ring: one
// binary search for the slot, one for the key-window cut, one splice.
func BenchmarkRingInsert(b *testing.B) {
	g := keys.NewGenerator(2)
	joinIDs := make([]ids.ID, benchWindow)
	for i := range joinIDs {
		joinIDs[i] = g.Next()
	}
	var r *Ring[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchWindow == 0 {
			b.StopTimer()
			r, _ = buildRing(b, 1024, 16_384)
			b.StartTimer()
		}
		if _, err := r.Insert(joinIDs[i%benchWindow], i); err != nil {
			b.Fatal(err)
		}
	}
}

// idleWindow is how many timed joins BenchmarkRingInsertIdleArc makes
// before rebuilding its ring off the clock: large enough that the
// rebuild, which costs about as much as the joins, does not dominate
// the wall time, small enough that the ring grows by a third at most.
const idleWindow = 1 << 15

// BenchmarkRingInsertIdleArc measures a join on a 100k-node Build ring
// that holds no keys — the shape of a late random-injection run, where
// almost every Sybil lands on an arc with nothing left to split, so the
// has-keys bit spares loading either neighbour.
func BenchmarkRingInsertIdleArc(b *testing.B) {
	g := keys.NewGenerator(4)
	nodeIDs := g.NodeIDs(100_000)
	data := make([]int, len(nodeIDs))
	joinIDs := g.NodeIDs(idleWindow)
	var r *Ring[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%idleWindow == 0 {
			b.StopTimer()
			r = New[int]()
			if _, err := r.Build(nodeIDs, data); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := r.Insert(joinIDs[i%idleWindow], i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingRemove measures a graceful leave with key hand-off to the
// successor. The ring is rebuilt off the clock with a window of spare
// nodes, so every timed iteration removes a node that is genuinely on a
// ring of bounded size.
func BenchmarkRingRemove(b *testing.B) {
	var (
		r     *Ring[int]
		nodes []*Node[int]
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchWindow == 0 {
			b.StopTimer()
			r, nodes = buildRing(b, benchWindow+1024, 16_384)
			b.StartTimer()
		}
		if err := r.Remove(nodes[i%benchWindow]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingSeed measures routing a fresh batch of task keys onto a
// 1024-node ring: one radix-assisted sort of the batch plus one
// galloping search per distinct owner. The per-iteration drain keeps
// the key population (and therefore the merge cost) constant across
// iterations. The slice case seeds a finished 8192-key batch; the
// generator cases seed a sim-paper-1k and a sim-scale-100k batch as
// the simulator does, hashing straight from the generator into the
// sort (SeedFrom), and report ns per key.
func BenchmarkRingSeed(b *testing.B) {
	drain := func(r *Ring[int]) {
		b.StopTimer()
		for j := 0; j < r.Len(); j++ {
			r.At(j).ConsumeN(1 << 30)
		}
		b.StartTimer()
	}
	b.Run("slice-8k", func(b *testing.B) {
		r, _ := buildRing(b, 1024, 0)
		batch := keys.NewGenerator(3).TaskKeys(8192)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Seed(batch); err != nil {
				b.Fatal(err)
			}
			drain(r)
		}
	})
	for _, c := range []struct {
		name string
		n    int
	}{{"gen-100k", 100_000}, {"gen-2M", 2_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			r, _ := buildRing(b, 1024, 0)
			g := keys.NewGenerator(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.SeedFrom(c.n, g.Reserve(c.n)); err != nil {
					b.Fatal(err)
				}
				drain(r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/key")
		})
	}
}

// BenchmarkSortedCopy measures Seed's batch sort per key. At 100k keys
// the 64Ki radix buckets hold about 1.5 keys each; at 2M (the
// sim-scale-100k batch) they hold about 30 and the per-bucket insertion
// sort is most of the cost.
func BenchmarkSortedCopy(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"100k", 100_000}, {"2M", 2_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			batch := keys.NewGenerator(5).TaskKeys(c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = sortedArena(len(batch), copyFill(batch))[0]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/key")
		})
	}
}

// TestHotPathsZeroAlloc pins the allocation-free contract of the
// per-tick hot calls. AllocsPerRun averages over many runs, so a single
// lazy index-hint repair (which allocates nothing anyway) cannot hide a
// real regression.
func TestHotPathsZeroAlloc(t *testing.T) {
	r, nodes := buildRing(t, 256, 50_000)
	// Warm every index hint so the runs below measure the steady state.
	for _, n := range nodes {
		benchSink = r.Succ(n, 1).ID()
	}
	heavy := nodes[0]
	for _, n := range nodes {
		if n.Workload() > heavy.Workload() {
			heavy = n
		}
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Succ", func() { benchSink = r.Succ(nodes[17], 3).ID() }},
		{"PredID", func() { benchSink = nodes[42].PredID() }},
		{"Get hit", func() {
			if n, ok := r.Get(nodes[99].ID()); ok {
				benchSink = n.ID()
			}
		}},
		{"Get miss", func() {
			if _, ok := r.Get(nodes[99].ID().Succ()); !ok {
				benchSink = ids.Zero
			}
		}},
		{"ids.Less", func() {
			if nodes[3].ID().Less(nodes[4].ID()) {
				benchSink = ids.Zero
			}
		}},
		{"Consume", func() {
			if k, ok := heavy.Consume(); ok {
				benchSink = k
			}
		}},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
			t.Errorf("%s allocates %.2f times per call; want 0", c.name, avg)
		}
	}
}
