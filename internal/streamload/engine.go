package streamload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

// Fetcher retrieves one chunk and returns its payload size. Fetch
// blocks for the full round trip (the Engine pipelines calls from many
// goroutines, so implementations must be safe for concurrent use) and
// must eventually return — a fetch that can hang forever would wedge a
// viewer's pipeline slot. NetFetcher adapts a netchord client; the
// virtual driver synthesizes fetches from a latency model instead.
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

// Engine drives Viewers concurrent playback sessions against a live
// Fetcher in real time: one goroutine per viewer runs the session loop,
// plus one short-lived goroutine per in-flight fetch. Monotone counters
// are exposed through Totals for a reporter loop; everything else is
// folded into the Result when Run returns.
type Engine struct {
	cfg  Config
	zipf *keys.Zipf

	start time.Time

	chunks atomic.Uint64
	misses atomic.Uint64
	rebufs atomic.Uint64
	bytes  atomic.Uint64

	mu          sync.Mutex
	latNs       []int64
	startupNs   []int64
	sessions    int
	fetchErrors uint64
	sloMiss     uint64
	stallNs     int64
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

// clock is nanoseconds since Run started (monotonic).
func (e *Engine) clock() int64 { return time.Since(e.start).Nanoseconds() }

// Run plays sessions until the chunk target is reached (or one session
// per viewer when no target is set), or ctx is canceled; in-flight
// fetches are always drained before it returns.
func (e *Engine) Run(ctx context.Context, f Fetcher) Result {
	e.start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < e.cfg.Viewers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			e.viewerLoop(ctx, f, idx)
		}(i)
	}
	wg.Wait()

	r := Result{
		Viewers:      e.cfg.Viewers,
		Chunks:       e.chunks.Load(),
		DeadlineMiss: e.misses.Load(),
		Rebuffers:    e.rebufs.Load(),
		Bytes:        e.bytes.Load(),
		DurationNs:   e.clock(),
	}
	e.mu.Lock()
	r.Sessions = e.sessions
	r.FetchErrors = e.fetchErrors
	r.SLOMiss = e.sloMiss
	r.StallNs = e.stallNs
	latNs, startupNs := e.latNs, e.startupNs
	e.mu.Unlock()
	r.finalize(latNs, startupNs)
	return r
}

// viewerLoop runs back-to-back sessions for one viewer until the run's
// chunk target is met.
func (e *Engine) viewerLoop(ctx context.Context, f Fetcher, idx int) {
	rng := xrand.Split(e.cfg.Seed, uint64(idx))
	for {
		if ctx.Err() != nil {
			return
		}
		obj := e.zipf.Rank(rng) - 1
		start := 0
		if e.cfg.MidJoinProb > 0 && e.cfg.Catalog.ObjectChunks > 1 && rng.Bool(e.cfg.MidJoinProb) {
			start = rng.IntRange(1, e.cfg.Catalog.ObjectChunks-1)
		}
		e.session(ctx, f, obj, start)
		if e.cfg.TargetChunks == 0 || e.chunks.Load() >= e.cfg.TargetChunks {
			return
		}
	}
}

// fetchResult carries one completed fetch back to its session loop.
type fetchResult struct {
	chunk int
	bytes uint64
	latNs int64
	err   error
}

// session plays object obj from chunk start to the end, pipelining
// fetches through the viewer's window.
func (e *Engine) session(ctx context.Context, f Fetcher, obj, start int) {
	cat := e.cfg.Catalog
	now := e.clock()
	v := NewViewer(ViewerConfig{
		Chunks:        cat.ObjectChunks,
		StartChunk:    start,
		ChunkDur:      int64(e.cfg.ChunkDur),
		StartupChunks: e.cfg.StartupChunks,
		Window:        e.cfg.Window,
		MaxInFlight:   e.cfg.MaxInFlight,
	}, now)
	// Capacity MaxInFlight and at most MaxInFlight outstanding fetches:
	// sends below can never block, so fetch goroutines always finish.
	results := make(chan fetchResult, e.cfg.MaxInFlight)
	timer := time.NewTimer(e.cfg.ChunkDur)
	defer timer.Stop()

	var prev ViewerStats
	var lat []int64
	var fetchErrs, sloMiss uint64
	sloNs := int64(e.cfg.SLO)
	backoff := int64(e.cfg.RetryBackoff)

	apply := func(r fetchResult) {
		now = e.clock()
		if r.err != nil {
			fetchErrs++
			v.Fail(now, r.chunk, backoff)
			return
		}
		v.Deliver(now, r.chunk)
		e.bytes.Add(r.bytes)
		lat = append(lat, r.latNs)
		if sloNs > 0 && r.latNs > sloNs {
			sloMiss++
		}
		st := v.Stats(now)
		e.chunks.Add(uint64(st.Delivered - prev.Delivered))
		e.misses.Add(uint64(st.DeadlineMiss - prev.DeadlineMiss))
		e.rebufs.Add(uint64(st.Rebuffers - prev.Rebuffers))
		prev = st
	}

	for !v.Done() && ctx.Err() == nil {
		now = e.clock()
		for {
			chunk, ok := v.Next(now)
			if !ok {
				break
			}
			go e.fetch(f, obj, chunk, results)
		}
		// Sleep until something can change state: a delivery, the next
		// playhead boundary, or a retry becoming eligible. The ChunkDur
		// fallback guards the (unreachable by construction) case of no
		// wake source with nothing in flight.
		wake, wok := v.NextWake(now)
		wait := time.Duration(-1)
		if wok {
			wait = time.Duration(wake - now)
		} else if v.InFlight() == 0 {
			wait = e.cfg.ChunkDur
		}
		if wait >= 0 {
			if wait < 50*time.Microsecond {
				wait = 50 * time.Microsecond
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case r := <-results:
				apply(r)
			case <-timer.C:
			case <-ctx.Done():
			}
		} else {
			select {
			case r := <-results:
				apply(r)
			case <-ctx.Done():
			}
		}
	}
	// Drain in-flight fetches (bounded by their own RPC timeouts) so no
	// goroutine outlives the session.
	for v.InFlight() > 0 {
		apply(<-results)
	}

	now = e.clock()
	st := v.Stats(now)
	e.chunks.Add(uint64(st.Delivered - prev.Delivered))
	e.misses.Add(uint64(st.DeadlineMiss - prev.DeadlineMiss))
	e.rebufs.Add(uint64(st.Rebuffers - prev.Rebuffers))
	e.mu.Lock()
	e.sessions++
	e.latNs = append(e.latNs, lat...)
	if st.Started {
		e.startupNs = append(e.startupNs, st.StartupNs)
	}
	e.fetchErrors += fetchErrs
	e.sloMiss += sloMiss
	e.stallNs += st.StallNs
	e.mu.Unlock()
}

// fetch performs one blocking fetch and reports the timed outcome.
func (e *Engine) fetch(f Fetcher, obj, chunk int, results chan<- fetchResult) {
	t0 := e.clock()
	n, err := f.Fetch(obj, chunk, e.cfg.Catalog.ChunkKey(obj, chunk))
	results <- fetchResult{chunk: chunk, bytes: uint64(n), latNs: e.clock() - t0, err: err}
}
