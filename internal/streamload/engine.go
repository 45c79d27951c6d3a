package streamload

import (
	"container/heap"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

// Fetcher retrieves one chunk and returns its payload size. Fetch
// blocks for the full round trip. The Engine runs each fetch on its own
// goroutine, so implementations must be safe for concurrent use, and
// Run waits for every fetch it started, so Fetch must eventually
// return. NetFetcher adapts a netchord client; RunVirtual needs no
// Fetcher, since it schedules each completion at a seeded latency.
type Fetcher interface {
	Fetch(obj, chunk int, key ids.ID) (int, error)
}

// Config shapes a streaming run — shared between the real-time Engine
// and the virtual driver so one flag set drives both.
type Config struct {
	// Catalog is the stored content being streamed.
	Catalog *Catalog
	// Viewers is the number of concurrent playback sessions.
	Viewers int
	// Seed makes every random choice (object popularity, join offsets,
	// virtual latencies) reproducible; each viewer gets Split streams.
	Seed uint64
	// ZipfS is the popularity exponent over catalog objects: 0 for
	// uniform, ~1 for the heavy skew of file-sharing measurement
	// studies, where a few viral objects dominate fetch volume.
	ZipfS float64
	// ChunkDur is the playback duration of one chunk (chunk bytes * 8 /
	// bitrate).
	ChunkDur time.Duration
	// StartupChunks is the buffer filled before playback starts.
	// Default 2.
	StartupChunks int
	// Window bounds prefetch to this many chunks ahead of the playhead
	// (0 = unbounded).
	Window int
	// MaxInFlight bounds pipelined concurrent fetches per viewer.
	// Default 4.
	MaxInFlight int
	// MidJoinProb is the probability a session joins mid-object instead
	// of at chunk 0.
	MidJoinProb float64
	// TargetChunks stops the run once this many chunks have been
	// delivered in total (sessions in flight complete). 0 means each
	// viewer plays exactly one session.
	TargetChunks uint64
	// SLO is the per-chunk fetch latency objective; fetches slower than
	// this count as SLOMiss. 0 disables the count.
	SLO time.Duration
	// RetryBackoff is how long a failed chunk waits before re-fetch.
	// Default ChunkDur.
	RetryBackoff time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.StartupChunks < 1 {
		c.StartupChunks = 2
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = c.ChunkDur
	}
	return c
}

// validate reports the first nonsensical field.
func (c Config) validate() error {
	if c.Catalog == nil {
		return fmt.Errorf("streamload: config needs a catalog")
	}
	if err := c.Catalog.Validate(); err != nil {
		return err
	}
	switch {
	case c.Viewers < 1:
		return fmt.Errorf("streamload: config needs at least 1 viewer, got %d", c.Viewers)
	case c.ChunkDur <= 0:
		return fmt.Errorf("streamload: config needs positive chunk duration, got %v", c.ChunkDur)
	case c.ZipfS < 0:
		return fmt.Errorf("streamload: negative zipf exponent %v", c.ZipfS)
	case c.MidJoinProb < 0 || c.MidJoinProb > 1:
		return fmt.Errorf("streamload: mid-join probability %v outside [0,1]", c.MidJoinProb)
	}
	return nil
}

// Engine drives Viewers concurrent playback sessions. Run plays them
// against a live Fetcher in real time; RunVirtual plays them on a
// discrete-event clock. Both run the same session loop (run), and the
// monotone counters behind Totals can be polled while it runs.
type Engine struct {
	cfg  Config
	zipf *keys.Zipf

	chunks atomic.Uint64
	misses atomic.Uint64
	rebufs atomic.Uint64
	bytes  atomic.Uint64
}

// NewEngine validates cfg and returns a ready engine; call Run exactly
// once.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, zipf: keys.NewZipf(cfg.Catalog.Objects, cfg.ZipfS)}, nil
}

// Totals snapshots the monotone delivery counters, safe to call from a
// reporter goroutine while Run is in flight.
func (e *Engine) Totals() Totals {
	return Totals{
		Chunks:       e.chunks.Load(),
		DeadlineMiss: e.misses.Load(),
		Rebuffers:    e.rebufs.Load(),
		Bytes:        e.bytes.Load(),
	}
}

// event is one occurrence for one viewer: a fetch completing, or a
// wake at which the playhead can move without a delivery.
type event struct {
	at     int64
	seq    uint64
	viewer int
	wake   bool
	fail   bool
	chunk  int
	bytes  uint64
	lat    int64
}

// queue is a min-heap of scheduled events in (at, seq) order. seq is
// the push order, so ties break deterministically. Callers use push and
// pop; the exported methods serve container/heap.
type queue struct {
	h   []event
	seq uint64
}

func (q *queue) push(ev event) {
	ev.seq = q.seq
	q.seq++
	heap.Push(q, ev)
}

func (q *queue) pop() event { return heap.Pop(q).(event) }

func (q *queue) Len() int { return len(q.h) }
func (q *queue) Less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
func (q *queue) Swap(i, j int) { q.h[i], q.h[j] = q.h[j], q.h[i] }
func (q *queue) Push(x any)    { q.h = append(q.h, x.(event)) }
func (q *queue) Pop() any {
	ev := q.h[len(q.h)-1]
	q.h = q.h[:len(q.h)-1]
	return ev
}

// source is what differs between a live and a virtual run: where the
// time comes from and how a fetch completes.
type source interface {
	// now is the current time in nanoseconds since the run began.
	now() int64
	// fetch starts fetching ev.chunk of object obj for ev.viewer; its
	// completion comes back from next as a non-wake event.
	fetch(q *queue, obj int, ev event)
	// next waits for the next event, a completion or q's earliest
	// wake, and removes it. ok=false ends the run.
	next(q *queue) (ev event, ok bool)
}

// session is one viewer's open playback session.
type session struct {
	v      *Viewer
	rng    *xrand.Rand // workload choices: object and join offset
	obj    int
	wakeAt int64 // the pending wake's time, 0 for none
	prev   ViewerStats
}

// run is the session loop. Each viewer plays back-to-back sessions
// (one, without a chunk target) until the target is met or ctx is
// canceled. After every event the viewer dispatches what it may fetch
// and keeps one pending wake, at NextWake, whether or not fetches are
// in flight. A wake whose time is not the viewer's pending wake time is
// stale and dropped when it comes due; two wakes of one viewer at one
// time are interchangeable, so the time alone identifies the current
// one.
func (e *Engine) run(ctx context.Context, src source) Result {
	cfg, cat := e.cfg, e.cfg.Catalog
	var (
		q         queue
		res       Result
		startupUs []float64
		open      int
		sess      = make([]session, cfg.Viewers)
	)
	sloNs, backoff := int64(cfg.SLO), int64(cfg.RetryBackoff)

	// fold adds the session's counters since its last fold to the
	// totals and returns its stats at now.
	fold := func(s *session, now int64) ViewerStats {
		st := s.v.Stats(now)
		e.chunks.Add(uint64(st.Delivered - s.prev.Delivered))
		e.misses.Add(uint64(st.DeadlineMiss - s.prev.DeadlineMiss))
		e.rebufs.Add(uint64(st.Rebuffers - s.prev.Rebuffers))
		s.prev = st
		return st
	}
	pump := func(i int, now int64) {
		s := &sess[i]
		for chunk, ok := s.v.Next(now); ok; chunk, ok = s.v.Next(now) {
			src.fetch(&q, s.obj, event{viewer: i, chunk: chunk})
		}
		if at, ok := s.v.NextWake(now); !ok {
			s.wakeAt = 0
		} else if at != s.wakeAt {
			s.wakeAt = at
			q.push(event{at: at, viewer: i, wake: true})
		}
	}
	vc := ViewerConfig{
		Chunks:        cat.ObjectChunks,
		ChunkDur:      int64(cfg.ChunkDur),
		StartupChunks: cfg.StartupChunks,
		Window:        cfg.Window,
		MaxInFlight:   cfg.MaxInFlight,
	}
	start := func(i int, now int64) {
		s := &sess[i]
		s.obj, vc.StartChunk = e.zipf.Rank(s.rng)-1, 0
		if cfg.MidJoinProb > 0 && cat.ObjectChunks > 1 && s.rng.Bool(cfg.MidJoinProb) {
			vc.StartChunk = s.rng.IntRange(1, cat.ObjectChunks-1)
		}
		s.v, s.prev, s.wakeAt = NewViewer(vc, now), ViewerStats{}, 0
		open++
		pump(i, now)
	}
	finish := func(i int, now int64) {
		s := &sess[i]
		st := fold(s, now)
		res.Sessions++
		res.StallNs += st.StallNs
		if st.Started {
			startupUs = append(startupUs, float64(st.StartupNs)/1e3)
		}
		s.v, s.wakeAt = nil, 0
		open--
	}

	now := src.now()
	for i := range sess {
		sess[i].rng = xrand.Split(cfg.Seed, uint64(i))
		start(i, now)
	}
	for open > 0 {
		ev, ok := src.next(&q)
		if !ok {
			break
		}
		now = src.now()
		s := &sess[ev.viewer]
		switch {
		case ev.wake:
			if ev.at != s.wakeAt {
				continue
			}
		case ev.fail:
			res.FetchErrors++
			s.v.Fail(now, ev.chunk, backoff)
		default:
			s.v.Deliver(now, ev.chunk)
			e.bytes.Add(ev.bytes)
			res.LatsUs = append(res.LatsUs, float64(ev.lat)/1e3)
			if sloNs > 0 && ev.lat > sloNs {
				res.SLOMiss++
			}
		}
		fold(s, now)
		if !s.v.Done() {
			if ctx.Err() == nil {
				pump(ev.viewer, now)
			}
			continue
		}
		finish(ev.viewer, now)
		if ctx.Err() == nil && cfg.TargetChunks > 0 && e.chunks.Load() < cfg.TargetChunks {
			start(ev.viewer, now)
		}
	}
	// A canceled run folds its open sessions as they stand.
	now = src.now()
	for i := range sess {
		if sess[i].v != nil {
			finish(i, now)
		}
	}

	t := e.Totals()
	res.Viewers, res.DurationNs = cfg.Viewers, now
	res.Chunks, res.DeadlineMiss, res.Rebuffers, res.Bytes = t.Chunks, t.DeadlineMiss, t.Rebuffers, t.Bytes
	res.finalize(startupUs)
	return res
}
