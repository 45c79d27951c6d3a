package parallel

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 200
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Error("fn must not be called for n <= 0")
	}
}

func TestMapOrder(t *testing.T) {
	out := Map(50, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapErrFirstByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := MapErr(10, 4, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errB
		case 3:
			return 0, errA
		}
		return i, nil
	})
	if err != errA {
		t.Errorf("err = %v, want first-by-index errA", err)
	}
	out, err := MapErr(5, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[4] != 5 {
		t.Errorf("out = %v", out)
	}
}

func TestDeterministicUnderConcurrency(t *testing.T) {
	// Results must not depend on worker count.
	f := func(i int) int { return i * 31 }
	a := Map(100, 1, f)
	b := Map(100, 16, f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("results differ by worker count")
		}
	}
}

// claimHits is a Claim context that counts the calls per index.
type claimHits struct{ hits []atomic.Int32 }

func (h claimHits) hit(i int) { h.hits[i].Add(1) }

// checkOnce fails unless every index was claimed exactly once.
func (h claimHits) checkOnce(t *testing.T, what string) {
	t.Helper()
	for i := range h.hits {
		if got := h.hits[i].Load(); got != 1 {
			t.Fatalf("%s: index %d ran %d times", what, i, got)
		}
	}
}

// TestClaimCoversAll runs every index exactly once, on the caller alone
// (GOMAXPROCS 1, or a single index) and with helpers.
func TestClaimCoversAll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 300} {
			h := claimHits{make([]atomic.Int32, n)}
			Claim(n, h, claimHits.hit)
			h.checkOnce(t, "Claim")
		}
	}
	Claim(-3, claimHits{}, claimHits.hit) // no index to claim, nothing to index
}

// phased is a ClaimPhases context: the first phase counts its calls,
// and every second-phase call records how many first-phase calls had
// returned when it started.
type phased struct {
	first, then claimHits
	seen        []atomic.Int32
	done        *atomic.Int32
}

func (p phased) runFirst(i int) {
	p.first.hit(i)
	p.done.Add(1)
}

func (p phased) runThen(j int) {
	p.seen[j].Store(p.done.Load())
	p.then.hit(j)
}

// TestClaimPhasesOrder runs each index of both phases once and starts
// no second-phase index before every first-phase one has returned.
func TestClaimPhasesOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, nm := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 256}, {40, 7}} {
			n, m := nm[0], nm[1]
			p := phased{claimHits{make([]atomic.Int32, n)}, claimHits{make([]atomic.Int32, m)}, make([]atomic.Int32, m), new(atomic.Int32)}
			ClaimPhases(n, m, p, phased.runFirst, phased.runThen)
			p.first.checkOnce(t, "first phase")
			p.then.checkOnce(t, "second phase")
			for j := range p.seen {
				if got := p.seen[j].Load(); got != int32(n) {
					t.Fatalf("procs=%d n=%d m=%d: second-phase index %d started after %d of %d first-phase calls", procs, n, m, j, got, n)
				}
			}
		}
	}
}

// TestClaimConcurrentCallers runs several claim loops at once, as a
// sweep's parallel trials do: they share the helpers, so wake-ups go
// stale or are dropped, and every loop must still run each of its own
// indices once and return only when all have returned.
func TestClaimConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				h := claimHits{make([]atomic.Int32, 50+c)}
				Claim(len(h.hits), h, claimHits.hit)
				h.checkOnce(t, "concurrent Claim")
			}
		}()
	}
	wg.Wait()
}

// TestClaimAllocs pins Claim's allocation count: one loop record when it
// wakes helpers and none on the caller alone, however many helpers join
// (a trial's allocation count must repeat exactly). AllocsPerRun runs
// at GOMAXPROCS 1, so the helper case is counted by hand. The runtime
// can add allocations of its own to a run with helpers (a thread, a
// wait-queue entry), never remove one, so the least of five batches is
// compared.
func TestClaimAllocs(t *testing.T) {
	h := claimHits{make([]atomic.Int32, 64)}
	if a := testing.AllocsPerRun(10, func() { Claim(len(h.hits), h, claimHits.hit) }); a != 0 {
		t.Errorf("Claim on the caller alone allocates %v times, want 0", a)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	Claim(len(h.hits), h, claimHits.hit) // start the helper outside the count
	const runs = 50
	least := uint64(math.MaxUint64)
	for batch := 0; batch < 5; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Claim(len(h.hits), h, claimHits.hit)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != runs {
		t.Errorf("%d Claims with helpers allocate %d times at least, want %d", runs, least, runs)
	}
}
