package streamload

import (
	"context"
	"time"

	"chordbalance/internal/xrand"
)

// VirtualConfig parameterizes the discrete-event driver: the shared
// workload knobs plus a synthetic latency model standing in for the
// network.
type VirtualConfig struct {
	Config
	// BaseLatency is the fixed component of every simulated fetch.
	// Default 1ms.
	BaseLatency time.Duration
	// JitterLatency scales an exponentially distributed jitter added to
	// BaseLatency (0 = constant latency).
	JitterLatency time.Duration
	// LossProb is the per-fetch failure probability, exercising the
	// viewer's retry/backoff path deterministically.
	LossProb float64
}

// virtual is the discrete-event source behind RunVirtual: the clock is
// the time of the last event taken from the queue, and each fetch is a
// completion event scheduled at a latency drawn from its viewer's
// network stream.
type virtual struct {
	cfg    VirtualConfig
	netRng []*xrand.Rand
	t      int64
}

func (s *virtual) now() int64 { return s.t }

func (s *virtual) fetch(q *queue, _ int, ev event) {
	rng := s.netRng[ev.viewer]
	ev.lat = int64(s.cfg.BaseLatency)
	if s.cfg.JitterLatency > 0 {
		ev.lat += int64(rng.ExpFloat64() * float64(s.cfg.JitterLatency))
	}
	ev.fail = s.cfg.LossProb > 0 && rng.Bool(s.cfg.LossProb)
	ev.at, ev.bytes = s.t+ev.lat, uint64(s.cfg.Catalog.ChunkSize(ev.chunk))
	q.push(ev)
}

func (s *virtual) next(q *queue) (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	ev := q.pop()
	s.t = ev.at
	return ev, true
}

// RunVirtual plays the streaming workload through the Engine's session
// loop on a discrete-event clock: no goroutines, no wall time, every
// fetch completing at a latency drawn from per-viewer seeded streams.
// Two runs with the same config produce identical Results bit for bit —
// the determinism anchor a live run cannot give.
func RunVirtual(cfg VirtualConfig) (Result, error) {
	e, err := NewEngine(cfg.Config)
	if err != nil {
		return Result{}, err
	}
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = time.Millisecond
	}
	// Network draws get their own stream per viewer, so changing the
	// latency model never perturbs which objects get watched.
	src := &virtual{cfg: cfg, netRng: make([]*xrand.Rand, e.cfg.Viewers)}
	for i := range src.netRng {
		src.netRng[i] = xrand.Split(e.cfg.Seed, 1<<32|uint64(i))
	}
	return e.run(context.TODO(), src), nil
}
