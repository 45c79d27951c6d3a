package keys

import (
	"crypto/sha1"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"chordbalance/internal/ids"
)

func TestHashUint64MatchesSHA1(t *testing.T) {
	want := sha1.Sum([]byte{0, 0, 0, 0, 0, 0, 0, 42})
	if got := HashUint64(42); got != ids.FromBytes(want[:]) {
		t.Errorf("HashUint64(42) = %v", got)
	}
}

func TestHashString(t *testing.T) {
	want := sha1.Sum([]byte("hello"))
	if got := HashString("hello"); got != ids.FromBytes(want[:]) {
		t.Errorf("HashString mismatch")
	}
	if HashString("a") == HashString("b") {
		t.Error("distinct strings hashed identically")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(5), NewGenerator(5)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same salt diverged")
		}
	}
	c := NewGenerator(6)
	if NewGenerator(5).Next() == c.Next() {
		t.Error("different salts collided on first output")
	}
}

func TestNodeIDsDistinct(t *testing.T) {
	g := NewGenerator(1)
	idsOut := g.NodeIDs(1000)
	if len(idsOut) != 1000 {
		t.Fatalf("got %d ids", len(idsOut))
	}
	seen := map[ids.ID]bool{}
	for _, id := range idsOut {
		if seen[id] {
			t.Fatal("duplicate node ID")
		}
		seen[id] = true
	}
}

func TestTaskKeysCount(t *testing.T) {
	if got := NewGenerator(2).TaskKeys(500); len(got) != 500 {
		t.Errorf("TaskKeys(500) length %d", len(got))
	}
}

// TestTaskKeysMatchesNext pins the parallel generator to the serial
// stream: whatever the worker count, TaskKeys(n) is n calls of Next, and
// the stream continues after it with no gap or repeat.
func TestTaskKeysMatchesNext(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, taskKeyChunk - 1, taskKeyChunk, taskKeyChunk + 1, 3*taskKeyChunk + 17} {
			g, twin := NewGenerator(77), NewGenerator(77)
			g.Next() // start mid-stream, not at counter 0
			twin.Next()
			got := g.TaskKeys(n)
			if len(got) != n {
				t.Fatalf("procs=%d: TaskKeys(%d) returned %d keys", procs, n, len(got))
			}
			for i, k := range got {
				if want := twin.Next(); k != want {
					t.Fatalf("procs=%d n=%d: key %d = %v, serial stream says %v", procs, n, i, k, want)
				}
			}
			if a, b := g.Next(), twin.Next(); a != b {
				t.Fatalf("procs=%d n=%d: stream after TaskKeys = %v, serial stream says %v", procs, n, a, b)
			}
		}
	}
}

// TestTaskKeysConcurrentCallers runs several generators at once, as a
// sweep's parallel trials do: they share internal/parallel's helpers,
// so wake-ups go stale or are dropped, and every caller must still get
// its own serial stream.
func TestTaskKeysConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(salt uint64) {
			defer wg.Done()
			g, twin := NewGenerator(salt), NewGenerator(salt)
			for round := 0; round < 5; round++ {
				for i, k := range g.TaskKeys(2*taskKeyChunk + 5) {
					if want := twin.Next(); k != want {
						t.Errorf("salt %d round %d: key %d = %v, serial stream says %v", salt, round, i, k, want)
						return
					}
				}
			}
		}(uint64(c))
	}
	wg.Wait()
}

// TestReserveMatchesNext pins Reserve to the serial stream: its fill
// writes the reserved keys in any order and any split, Reserve(n)
// advances the stream exactly as n calls of Next, and two reservations
// never overlap.
func TestReserveMatchesNext(t *testing.T) {
	g, twin := NewGenerator(78), NewGenerator(78)
	g.Next() // start mid-stream, not at counter 0
	twin.Next()
	for _, n := range []int{0, 1, 5, 3*taskKeyChunk + 17} {
		fill := g.Reserve(n)
		got := make([]ids.ID, n)
		for hi := n; hi > 0; hi -= 1000 { // back to front, 1000 keys a call
			lo := max(0, hi-1000)
			fill(got[lo:hi], lo)
		}
		for i, k := range got {
			if want := twin.Next(); k != want {
				t.Fatalf("n=%d: key %d = %v, serial stream says %v", n, i, k, want)
			}
		}
	}
	if a, b := g.Next(), twin.Next(); a != b {
		t.Fatalf("stream after the reservations = %v, serial stream says %v", a, b)
	}
}

func TestEvenIDsSpacing(t *testing.T) {
	out := EvenIDs(4, ids.Zero)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != ids.Zero {
		t.Errorf("first = %v", out[0])
	}
	if out[2] != ids.PowerOfTwo(159) {
		t.Errorf("half-way id = %v, want 2^159", out[2])
	}
	// All gaps within one unit of each other.
	fr := ArcFractions(out)
	for _, f := range fr {
		if math.Abs(f-0.25) > 1e-9 {
			t.Errorf("even arc fraction = %v, want 0.25", f)
		}
	}
	if EvenIDs(0, ids.Zero) != nil {
		t.Error("EvenIDs(0) must be nil")
	}
}

func TestEvenIDsOffset(t *testing.T) {
	off := ids.FromUint64(12345)
	out := EvenIDs(3, off)
	if out[0] != off {
		t.Errorf("offset not applied: %v", out[0])
	}
}

func TestFraction(t *testing.T) {
	if fraction(0, 7) != ids.Zero {
		t.Error("fraction(0,n) != 0")
	}
	if got := fraction(1, 2); got != ids.PowerOfTwo(159) {
		t.Errorf("1/2 of ring = %v", got)
	}
	if got := fraction(1, 4); got != ids.PowerOfTwo(158) {
		t.Errorf("1/4 of ring = %v", got)
	}
}

func TestAssignSimple(t *testing.T) {
	nodes := []ids.ID{ids.FromUint64(100), ids.FromUint64(200)}
	tasks := []ids.ID{
		ids.FromUint64(50),  // (200, 100] wrapping -> node 100
		ids.FromUint64(100), // own key inclusive -> node 100
		ids.FromUint64(150), // (100, 200] -> node 200
		ids.FromUint64(250), // wraps -> node 100
	}
	got := Assign(nodes, tasks)
	if got[0] != 3 || got[1] != 1 {
		t.Errorf("Assign = %v, want [3 1]", got)
	}
}

func TestAssignEmpty(t *testing.T) {
	if Assign(nil, []ids.ID{ids.Zero}) != nil {
		t.Error("no nodes must yield nil")
	}
	got := Assign([]ids.ID{ids.FromUint64(5)}, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("no tasks: %v", got)
	}
}

func TestAssignSingleNodeOwnsAll(t *testing.T) {
	g := NewGenerator(3)
	tasks := g.TaskKeys(100)
	got := Assign([]ids.ID{ids.FromUint64(777)}, tasks)
	if got[0] != 100 {
		t.Errorf("single node owns %d, want 100", got[0])
	}
}

func TestAssignConservation(t *testing.T) {
	f := func(seed uint64, nNodes, nTasks uint8) bool {
		n := int(nNodes%50) + 1
		m := int(nTasks)
		g := NewGenerator(seed)
		loads := Assign(g.NodeIDs(n), g.TaskKeys(m))
		sum := 0
		for _, l := range loads {
			if l < 0 {
				return false
			}
			sum += l
		}
		return sum == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOwnerOfBoundaries(t *testing.T) {
	sorted := []ids.ID{ids.FromUint64(10), ids.FromUint64(20), ids.FromUint64(30)}
	cases := []struct{ key, want uint64 }{
		{10, 10}, {11, 20}, {20, 20}, {25, 30}, {30, 30}, {31, 10}, {5, 10},
	}
	for _, c := range cases {
		if got := ownerOf(sorted, ids.FromUint64(c.key)); got != ids.FromUint64(c.want) {
			t.Errorf("ownerOf(%d) = %v, want %d", c.key, got, c.want)
		}
	}
}

func TestArcFractionsSumToOne(t *testing.T) {
	g := NewGenerator(11)
	fr := ArcFractions(g.NodeIDs(100))
	var sum float64
	for _, f := range fr {
		if f < 0 {
			t.Fatal("negative arc")
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("arc fractions sum = %v", sum)
	}
	if ArcFractions(nil) != nil {
		t.Error("empty input must be nil")
	}
	single := ArcFractions([]ids.ID{ids.FromUint64(3)})
	if len(single) != 1 || single[0] != 1 {
		t.Errorf("single node fraction = %v", single)
	}
}

// TestAnalyzeDistributionTable1Shape verifies the core Table I claim: the
// median workload is far below the mean (tasks/nodes) and σ is on the order
// of the mean, because SHA-1 arcs follow an exponential distribution.
func TestAnalyzeDistributionTable1Shape(t *testing.T) {
	r := AnalyzeDistribution(1000, 100000, 42)
	if r.Mean != 100 {
		t.Fatalf("mean = %v, want exactly tasks/nodes = 100", r.Mean)
	}
	// Paper: median 69.4, σ 137. Allow generous slack for a single trial.
	if r.MedianWorkload < 50 || r.MedianWorkload > 90 {
		t.Errorf("median = %v, want ~69", r.MedianWorkload)
	}
	if r.StdDev < 80 || r.StdDev > 200 {
		t.Errorf("sigma = %v, want ~100-140", r.StdDev)
	}
	if r.Gini < 0.3 || r.Gini > 0.7 {
		t.Errorf("gini = %v, want ~0.5 for exponential arcs", r.Gini)
	}
}

func TestDistributionReportString(t *testing.T) {
	r := DistributionReport{Nodes: 10, Tasks: 100, MedianWorkload: 7, StdDev: 10.5, Mean: 10, Gini: 0.5}
	if s := r.String(); s == "" || !sort.StringsAreSorted([]string{s}) {
		t.Errorf("String() = %q", s)
	}
}
