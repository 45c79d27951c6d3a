package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewLogHistogramEdges(t *testing.T) {
	h := NewLogHistogram(1000, 1)
	want := []float64{1, 10, 100, 1000}
	if len(h.Edges) != len(want) {
		t.Fatalf("edges = %v", h.Edges)
	}
	for i, e := range want {
		if !almostEqual(h.Edges[i], e, 1e-9) {
			t.Errorf("edge %d = %v, want %v", i, h.Edges[i], e)
		}
	}
	if len(h.Counts) != 3 {
		t.Errorf("bins = %d, want 3", len(h.Counts))
	}
}

func TestNewLogHistogramSubdivided(t *testing.T) {
	h := NewLogHistogram(100, 2)
	if len(h.Counts) != 4 {
		t.Fatalf("bins = %d, want 4", len(h.Counts))
	}
	if !almostEqual(h.Edges[1], math.Sqrt(10), 1e-9) {
		t.Errorf("half-decade edge = %v", h.Edges[1])
	}
}

func TestLogEdgesMatchPaperBinning(t *testing.T) {
	edges := LogEdges(100000, 3)
	if len(edges) != 16 {
		t.Fatalf("len(edges) = %d, want 16 (5 decades x 3 + 1)", len(edges))
	}
	if edges[0] != 1 {
		t.Fatalf("edges[0] = %v, want 1", edges[0])
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not increasing at %d: %v", i, edges)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogHistogram(0.5, 1) },
		func() { NewLogHistogram(10, 0) },
		func() { NewLogHistogram(10, 1).Add(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewLogHistogram(1000, 1) // bins [1,10) [10,100) [100,1000)
	h.Add(0)
	h.AddInt(1)
	h.Add(9.99)
	h.Add(10)
	h.Add(99)
	h.Add(100)
	h.Add(999)
	h.Add(1000) // overflow
	h.Add(5000) // overflow
	if h.ZeroCount != 1 {
		t.Errorf("zero = %d", h.ZeroCount)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.OverCount != 2 {
		t.Errorf("over = %d", h.OverCount)
	}
	if h.Total() != 9 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramMassConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewLogHistogram(10000, 3)
		for _, v := range raw {
			h.AddInt(int(v))
		}
		sum := h.ZeroCount + h.OverCount
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(raw) && h.Total() == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewLogHistogram(100, 1)
	if h.Fractions() != nil {
		t.Error("empty histogram fractions must be nil")
	}
	h.Add(0)
	h.Add(5)
	h.Add(50)
	h.Add(500)
	fr := h.Fractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("fractions sum to %v", sum)
	}
	if fr[0] != 0.25 || fr[len(fr)-1] != 0.25 {
		t.Errorf("zero/over fractions = %v", fr)
	}
}

func TestBinLabels(t *testing.T) {
	h := NewLogHistogram(100, 1)
	if got := h.BinLabel(-1); got != "0 (idle)" {
		t.Errorf("zero label = %q", got)
	}
	if got := h.BinLabel(0); got != "[1,10)" {
		t.Errorf("bin 0 label = %q", got)
	}
	if got := h.BinLabel(len(h.Counts)); got != ">=100" {
		t.Errorf("over label = %q", got)
	}
}

func TestASCII(t *testing.T) {
	h := NewLogHistogram(100, 1)
	if out := h.ASCII(10); !strings.Contains(out, "empty") {
		t.Errorf("empty ASCII = %q", out)
	}
	h.Add(0)
	h.Add(0)
	h.Add(5)
	out := h.ASCII(10)
	if !strings.Contains(out, "0 (idle)") || !strings.Contains(out, "##") {
		t.Errorf("ASCII output missing content:\n%s", out)
	}
	// Zero width falls back to a sane default rather than dividing by zero.
	if out := h.ASCII(0); out == "" {
		t.Error("ASCII(0) empty")
	}
}
