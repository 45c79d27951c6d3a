package streamload

import (
	"context"
	"time"
)

// live is the wall-clock source behind Run: it times the run from its
// creation, runs each fetch on its own goroutine and delivers the
// completions on a channel. It is the only code in the package that
// reads the wall clock.
type live struct {
	ctx     context.Context
	f       Fetcher
	cat     *Catalog
	start   time.Time
	done    chan event
	pending int // fetches started and not yet received from done
}

// Run plays sessions until the chunk target is reached (or one session
// per viewer when no target is set), or ctx is canceled; in-flight
// fetches are always drained before it returns.
func (e *Engine) Run(ctx context.Context, f Fetcher) Result {
	// done holds as many completions as can be in flight, so a fetch
	// goroutine never blocks on its send.
	done := make(chan event, e.cfg.Viewers*e.cfg.MaxInFlight)
	return e.run(ctx, &live{ctx: ctx, f: f, cat: e.cfg.Catalog, start: time.Now(), done: done})
}

func (l *live) now() int64 { return time.Since(l.start).Nanoseconds() }

func (l *live) fetch(_ *queue, obj int, ev event) {
	l.pending++
	go func() {
		t0 := l.now()
		n, err := l.f.Fetch(obj, ev.chunk, l.cat.ChunkKey(obj, ev.chunk))
		ev.lat, ev.bytes, ev.fail = l.now()-t0, uint64(n), err != nil
		l.done <- ev
	}()
}

// next returns the first of a fetch completion and q's earliest wake
// coming due. Once ctx is canceled it returns only completions, until
// every started fetch has been received, so no fetch goroutine outlives
// the run.
func (l *live) next(q *queue) (event, bool) {
	if l.ctx.Err() == nil && (len(q.h) > 0 || l.pending > 0) {
		var due <-chan time.Time
		if len(q.h) > 0 {
			// The 50µs floor keeps a wake due now or just past from
			// spinning the loop.
			t := time.NewTimer(max(time.Duration(q.h[0].at-l.now()), 50*time.Microsecond))
			defer t.Stop()
			due = t.C
		}
		select {
		case ev := <-l.done:
			l.pending--
			return ev, true
		case <-due:
			return q.pop(), true
		case <-l.ctx.Done():
		}
	}
	if l.pending == 0 {
		return event{}, false
	}
	l.pending--
	return <-l.done, true
}
