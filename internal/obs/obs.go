// Package obs is the repository's deterministic observability layer: a
// tiny, stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms) plus a per-tick structured trace emitted as JSONL through a
// pluggable Sink. It turns the paper's end-of-run aggregates (runtime
// factor, message totals, tick-0/5/35 snapshots) into continuous
// time-series — per-tick workload imbalance, strategy action counts,
// fault and transport activity — that cmd/dhttrace can summarize, plot
// as ASCII sparklines/histograms, and diff tick-by-tick across runs.
//
// Two properties are load-bearing and guarded by tests:
//
//   - Seed determinism. A trace is a pure function of the traced run:
//     metric names are emitted in sorted order, floats are formatted with
//     strconv's shortest round-trip form, and nothing here reads clocks,
//     map iteration order, or global randomness. Two same-seed runs
//     produce byte-identical trace files, so `dhttrace diff` doubles as a
//     determinism check stronger than the sim goldens.
//
//   - Zero overhead when disabled. The disabled state is a nil *Tracer:
//     every method is nil-receiver safe and returns immediately, callers
//     guard their metric-gathering work with one pointer test, and the
//     engine's hot loop performs zero additional allocations (asserted
//     by AllocsPerRun guards).
//
// See docs/OBSERVABILITY.md for the metric catalog and the trace schema.
package obs

import (
	"fmt"
	"sort"
)

// Kind classifies a metric.
type Kind int

// Metric kinds. Counters are cumulative int64s, gauges are
// instantaneous float64s, histograms are fixed-bucket int64 counts.
const (
	KindCounter Kind = iota
	KindGauge
	KindHist
)

// String names the kind as it appears in trace schema records.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "hist"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// metric is one registered time series; exactly one of the value fields
// is live, selected by kind.
type metric struct {
	name string
	unit string
	help string
	kind Kind

	ival    int64     // KindCounter
	fval    float64   // KindGauge
	edges   []float64 // KindHist: bucket boundaries, strictly increasing
	buckets []int64   // KindHist: len(edges)+1 counts (under, bins..., over)
}

// Counter is a cumulative int64 metric.
type Counter struct{ m *metric }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.m.ival += delta }

// Set overwrites the counter, for mirroring a cumulative count that is
// maintained elsewhere (e.g. sim.MessageStats).
func (c *Counter) Set(v int64) { c.m.ival = v }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.m.ival }

// Gauge is an instantaneous float64 metric.
type Gauge struct{ m *metric }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.m.fval = v }

// SetInt overwrites the gauge with an integer value.
func (g *Gauge) SetInt(v int64) { g.m.fval = float64(v) }

// SetBool overwrites the gauge with 1 (true) or 0 (false).
func (g *Gauge) SetBool(v bool) {
	if v {
		g.m.fval = 1
	} else {
		g.m.fval = 0
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.m.fval }

// Histogram is a fixed-bucket histogram over float64 observations.
// Bucket 0 counts observations below the first edge (for workload
// histograms with edges starting at 1 this is the paper's "idle nodes"
// bin), bucket i counts [edges[i-1], edges[i]), and the final bucket
// counts observations at or above the last edge.
type Histogram struct{ m *metric }

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	edges := h.m.edges
	if x < edges[0] {
		h.m.buckets[0]++
		return
	}
	if x >= edges[len(edges)-1] {
		h.m.buckets[len(edges)]++
		return
	}
	// Binary search for the bucket with edges[i] <= x < edges[i+1].
	lo, hi := 0, len(edges)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if edges[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h.m.buckets[lo+1]++
}

// ObserveInt records one integer observation.
func (h *Histogram) ObserveInt(x int) { h.Observe(float64(x)) }

// Reset zeroes every bucket; per-tick histograms are refilled each tick.
func (h *Histogram) Reset() {
	for i := range h.m.buckets {
		h.m.buckets[i] = 0
	}
}

// Counts returns the live bucket slice (len(Edges)+1: under, bins...,
// over). The caller must not mutate it.
func (h *Histogram) Counts() []int64 { return h.m.buckets }

// Edges returns the bucket boundaries. The caller must not mutate them.
func (h *Histogram) Edges() []float64 { return h.m.edges }

// Registry holds a run's metrics in sorted name order, so every registry
// dump — and therefore every trace record — is byte-deterministic.
// Registration is idempotent by (name, kind); registering an existing
// name under a different kind panics, because two subsystems disagreeing
// about a metric is a programming error.
//
// A Registry is not safe for concurrent use: each traced run owns its
// own registry, mirroring the engine's one-RNG-per-trial discipline.
type Registry struct {
	byName  map[string]*metric
	ordered []*metric // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds (or finds) a metric, keeping ordered sorted by name.
func (r *Registry) register(name, unit, help string, kind Kind) *metric {
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, unit: unit, help: help, kind: kind}
	r.byName[name] = m
	i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].name >= name })
	r.ordered = append(r.ordered, nil)
	copy(r.ordered[i+1:], r.ordered[i:])
	r.ordered[i] = m
	return m
}

// Counter registers (or finds) a cumulative counter.
func (r *Registry) Counter(name, unit, help string) *Counter {
	return &Counter{m: r.register(name, unit, help, KindCounter)}
}

// Gauge registers (or finds) an instantaneous gauge.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	return &Gauge{m: r.register(name, unit, help, KindGauge)}
}

// Histogram registers (or finds) a fixed-bucket histogram. edges must be
// strictly increasing and non-empty; re-registering with different edges
// panics.
func (r *Registry) Histogram(name, unit, help string, edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("obs: histogram edges must be strictly increasing")
		}
	}
	m := r.register(name, unit, help, KindHist)
	if m.buckets == nil {
		m.edges = append([]float64(nil), edges...)
		m.buckets = make([]int64, len(edges)+1)
	} else if len(m.edges) != len(edges) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different edges", name))
	} else {
		for i, e := range edges {
			if m.edges[i] != e {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different edges", name))
			}
		}
	}
	return &Histogram{m: m}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.ordered) }
