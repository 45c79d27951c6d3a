package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program is instrumented). Times are on
// the harness clock; parent is -1 for a root; op groups the spans of
// one operation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer collects spans in memory for one goroutine; tracers of
// several goroutines use disjoint id ranges (base) and are merged when
// the run ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	base  int
	spans []span
}

// newTracer returns a tracer whose span ids start at base.
func newTracer(base, sizeHint int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, sizeHint)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := t.base + len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: sinceStart()})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id-t.base].End = sinceStart()
}

// mergeSpans concatenates the tracers' spans (nil tracers skipped).
func mergeSpans(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t != nil {
			out = append(out, t.spans...)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	children := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfTimeCheck compares the sum of every span's self time with the
// sum of the root spans' durations; by construction they agree when
// every child lies inside its parent, so a gap means a malformed trace.
func selfTimeCheck(spans []span) (selfSum, rootSum time.Duration) {
	for _, d := range selfTimes(spans) {
		selfSum += d
	}
	for _, s := range spans {
		if s.Parent < 0 {
			rootSum += s.End - s.Start
		}
	}
	return selfSum, rootSum
}

// spanDurations returns the durations, in microseconds, of every span
// with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeSpans writes one JSON object per span to path, creating the
// directory if needed.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // as above
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
