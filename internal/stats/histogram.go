package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over non-negative values. The paper's
// workload figures use logarithmically spaced bins (workloads span 0 to
// >10,000 tasks), with a dedicated underflow bin for exactly-zero workloads
// ("idle nodes"), which the figures call out separately.
type Histogram struct {
	// Edges holds the bin boundaries: bin i covers [Edges[i], Edges[i+1]).
	// The first edge is always > 0; values of exactly 0 land in ZeroCount.
	Edges []float64
	// Counts[i] is the number of observations in bin i.
	Counts []int
	// ZeroCount is the number of observations equal to zero.
	ZeroCount int
	// OverCount is the number of observations >= the last edge.
	OverCount int
	total     int
}

// NewLogHistogram builds a histogram with binsPerDecade log-spaced bins per
// decade covering [1, max]. It panics if max < 1 or binsPerDecade < 1.
func NewLogHistogram(max float64, binsPerDecade int) *Histogram {
	if max < 1 || binsPerDecade < 1 {
		panic("stats: invalid log histogram parameters")
	}
	decades := math.Ceil(math.Log10(max))
	if decades < 1 {
		decades = 1
	}
	n := int(decades) * binsPerDecade
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = math.Pow(10, float64(i)/float64(binsPerDecade))
	}
	return &Histogram{Edges: edges, Counts: make([]int, n)}
}

// Add records one observation. Negative values panic: workloads are counts.
func (h *Histogram) Add(x float64) {
	if x < 0 {
		panic("stats: negative observation")
	}
	h.total++
	if x == 0 {
		h.ZeroCount++
		return
	}
	if x < h.Edges[0] {
		// Sub-unit positive values share the zero/idle bucket; workloads
		// are integral so this only triggers for fractional test inputs.
		h.ZeroCount++
		return
	}
	if x >= h.Edges[len(h.Edges)-1] {
		h.OverCount++
		return
	}
	// Binary search for the bin with Edges[i] <= x < Edges[i+1].
	lo, hi := 0, len(h.Counts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.Edges[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h.Counts[lo]++
}

// AddInt records an integer observation.
func (h *Histogram) AddInt(x int) { h.Add(float64(x)) }

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Fractions returns each bin's share of all observations, preceded by the
// zero bin and followed by the overflow bin; the slice therefore has
// len(Counts)+2 entries. It returns nil for an empty histogram.
func (h *Histogram) Fractions() []float64 {
	if h.total == 0 {
		return nil
	}
	out := make([]float64, len(h.Counts)+2)
	out[0] = float64(h.ZeroCount) / float64(h.total)
	for i, c := range h.Counts {
		out[i+1] = float64(c) / float64(h.total)
	}
	out[len(out)-1] = float64(h.OverCount) / float64(h.total)
	return out
}

// BinLabel renders a human-readable range label for bin i, with i == -1
// denoting the zero bin and i == len(Counts) the overflow bin.
func (h *Histogram) BinLabel(i int) string {
	switch {
	case i == -1:
		return "0 (idle)"
	case i == len(h.Counts):
		return fmt.Sprintf(">=%s", trimFloat(h.Edges[len(h.Edges)-1]))
	default:
		return fmt.Sprintf("[%s,%s)", trimFloat(h.Edges[i]), trimFloat(h.Edges[i+1]))
	}
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.1f", f)
	s = strings.TrimSuffix(s, ".0")
	return s
}

// ASCII renders the histogram as a bar chart suitable for terminal output,
// one row per non-empty bin plus the zero and overflow rows. width is the
// number of characters for the largest bar.
func (h *Histogram) ASCII(width int) string {
	if width < 1 {
		width = 40
	}
	maxCount := h.ZeroCount
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if h.OverCount > maxCount {
		maxCount = h.OverCount
	}
	if maxCount == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	row := func(label string, count int) {
		bar := strings.Repeat("#", count*width/maxCount)
		fmt.Fprintf(&b, "%16s |%-*s %d\n", label, width, bar, count)
	}
	row(h.BinLabel(-1), h.ZeroCount)
	for i, c := range h.Counts {
		if c > 0 {
			row(h.BinLabel(i), c)
		}
	}
	if h.OverCount > 0 {
		row(h.BinLabel(len(h.Counts)), h.OverCount)
	}
	return b.String()
}
