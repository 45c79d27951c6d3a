// Package parallel provides the small worker-pool primitives the
// experiment harness uses to spread independent simulation trials across
// CPU cores, and the claim loop that splits one trial's build (task-key
// hashing and the seed sort) over them. Work is divided by index, so
// results are identical regardless of worker count or scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) using up to workers goroutines
// (0 means GOMAXPROCS). It blocks until all iterations finish. fn must be
// safe for concurrent invocation with distinct indices.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) in parallel and collects the results in index
// order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErr is Map for fallible work: it returns the first error encountered
// (by index order) along with the results computed so far. All iterations
// run regardless; short-circuiting would make trial batches
// schedule-dependent.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, workers, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Claim calls body(ctx, i) once for every i in [0, n) and returns when
// every call has returned. The caller claims indices from one atomic
// counter; when n > 1 and GOMAXPROCS > 1, up to GOMAXPROCS-1 pooled
// helpers are woken to claim beside it. body must be safe to run
// concurrently on distinct indices, and its result must not depend on
// which goroutine ran which index. ctx is passed by value, so a call
// allocates exactly one loop record when it wakes helpers and nothing
// otherwise, however many of them join.
func Claim[C any](n int, ctx C, body func(ctx C, i int)) {
	ClaimPhases(n, 0, ctx, body, nil)
}

// ClaimPhases is Claim for two dependent phases in one loop: it calls
// first(ctx, i) for every i in [0, n), then then(ctx, j) for every j in
// [0, m), each of the latter only once every call of first has
// returned. Indices are claimed in that order, so a goroutine that
// claims into the second phase early waits (yielding) for at most the
// first phase's last claims in flight. Both phases share one wake-up
// and one loop record.
func ClaimPhases[C any](n, m int, ctx C, first, then func(ctx C, i int)) {
	workers := min(runtime.GOMAXPROCS(0), max(n, m))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			first(ctx, i)
		}
		for j := 0; j < m; j++ {
			then(ctx, j)
		}
		return
	}
	l := &claimLoop[C]{split: int64(n), end: int64(n + m), ctx: ctx, first: first, then: then}
	for ; workers > 1; workers-- {
		wakeHelper(l)
	}
	l.run()
	// at most one claim's wait; yield, never park (see the helpers)
	for l.done.Load() < l.end {
		runtime.Gosched()
	}
}

// claimLoop is one ClaimPhases call's shared state: indices below split
// are the first phase's, the rest up to end the second's.
type claimLoop[C any] struct {
	split, end    int64
	ctx           C
	first, then   func(C, int)
	claimed, done atomic.Int64
}

func (l *claimLoop[C]) run() {
	for i := l.claimed.Add(1) - 1; i < l.end; i = l.claimed.Add(1) - 1 {
		if i < l.split {
			l.first(l.ctx, int(i))
		} else {
			for l.done.Load() < l.split {
				runtime.Gosched()
			}
			l.then(l.ctx, int(i-l.split))
		}
		l.done.Add(1)
	}
}

// The claim loops' helpers live for the process, holding nothing
// between loops: spawning per call, or parking the caller on a
// WaitGroup, would add runtime allocations (goroutine structs,
// wait-queue entries) whose count depends on scheduling, and a trial's
// allocation count must repeat exactly (benchmarks' TestDigestStable).
// A wake-up is dropped when helperWake (a few loops deep at up to 64
// cores) is full, and is a no-op once its loop's indices are all
// claimed.
var (
	helperN    atomic.Int64
	helperWake = make(chan interface{ run() }, 64)
)

// wakeHelper hands l to an idle helper, starting one if fewer than
// GOMAXPROCS-1 exist.
func wakeHelper(l interface{ run() }) {
	if helperN.Add(1) < int64(runtime.GOMAXPROCS(0)) {
		go func() {
			for l := range helperWake {
				l.run()
			}
		}()
	} else {
		helperN.Add(-1)
	}
	select {
	case helperWake <- l:
	default:
	}
}
