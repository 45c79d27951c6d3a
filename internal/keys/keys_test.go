package keys

import (
	"crypto/sha1"
	"math"
	"runtime"
	"sync"
	"testing"

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
	// The batch hash is the stream itself: the same IDs as 1000 calls of
	// Next, and the generator left where they would leave it.
	ref := NewGenerator(1)
	for i, id := range idsOut {
		if want := ref.Next(); id != want {
			t.Fatalf("NodeIDs[%d] = %v, Next says %v", i, id, want)
		}
	}
	if got, want := g.Next(), ref.Next(); got != want {
		t.Fatalf("after NodeIDs, Next = %v, want %v", got, want)
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
	// All gaps within one unit of each other: every arc is the mean.
	a := AnalyzeArcs(out)
	if math.Abs(a.MeanFraction-0.25) > 1e-9 || math.Abs(a.MedianToMean-1) > 1e-9 || math.Abs(a.MaxToMean-1) > 1e-9 {
		t.Errorf("even arcs = %+v, want every fraction 0.25", a)
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

// TestAnalyzeArcsSumToOne checks that the arcs AnalyzeArcs measures
// cover the ring exactly once: n arcs whose mean is 1/n. The empty and
// single-node rings are TestAnalyzeArcsEmpty's and
// TestAnalyzeArcsSingleNode's.
func TestAnalyzeArcsSumToOne(t *testing.T) {
	a := AnalyzeArcs(NewGenerator(11).NodeIDs(100))
	if a.Nodes != 100 {
		t.Fatalf("nodes = %d", a.Nodes)
	}
	if a.MedianFraction <= 0 || a.MaxToMean < 1 {
		t.Errorf("degenerate arcs: %+v", a)
	}
	if sum := a.MeanFraction * 100; math.Abs(sum-1) > 1e-6 {
		t.Errorf("arc fractions sum = %v", sum)
	}
}
