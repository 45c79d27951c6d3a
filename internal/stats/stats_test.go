package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Median != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.StdDev != 2 {
		t.Errorf("got %+v, want mean 5 stddev 2", s)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
	if s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Errorf("min/max/sum wrong: %+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("median = %v, want 5", s.Median)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int{1, 2, 3})
	if s.Mean != 2 || s.Median != 2 {
		t.Errorf("got %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40}, {40, 29},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
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

func TestGini(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); !almostEqual(g, 0, 1e-12) {
		t.Errorf("uniform Gini = %v", g)
	}
	// All mass on one of n elements: G = (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 100}); !almostEqual(g, 0.75, 1e-12) {
		t.Errorf("concentrated Gini = %v, want 0.75", g)
	}
	if g := Gini(nil); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Errorf("all-zero Gini = %v", g)
	}
	if g := GiniInts([]int{1, 1, 1}); !almostEqual(g, 0, 1e-12) {
		t.Errorf("GiniInts uniform = %v", g)
	}
}

func TestGiniRangeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		g := Gini(xs)
		return g >= -1e-9 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnlineMatchesSummarize(t *testing.T) {
	xs := []float64{3, 7, 7, 19, 24, 1, 0.5}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	s := Summarize(xs)
	if o.N() != s.N {
		t.Errorf("N = %d, want %d", o.N(), s.N)
	}
	if !almostEqual(o.Mean(), s.Mean, 1e-9) {
		t.Errorf("mean %v vs %v", o.Mean(), s.Mean)
	}
	if !almostEqual(o.StdDev(), s.StdDev, 1e-9) {
		t.Errorf("stddev %v vs %v", o.StdDev(), s.StdDev)
	}
	if o.Min() != s.Min || o.Max() != s.Max {
		t.Errorf("min/max %v/%v vs %v/%v", o.Min(), o.Max(), s.Min, s.Max)
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.ConfidenceInterval95() != 0 {
		t.Error("empty Online accumulator must report zeros")
	}
}

func TestConfidenceInterval(t *testing.T) {
	var o Online
	for i := 0; i < 100; i++ {
		o.Add(float64(i % 2)) // variance 0.25, sample sd ~0.5025
	}
	ci := o.ConfidenceInterval95()
	if ci <= 0 || ci > 0.2 {
		t.Errorf("CI = %v, want small positive", ci)
	}
	var single Online
	single.Add(5)
	if single.ConfidenceInterval95() != 0 {
		t.Error("CI of one observation must be 0")
	}
}
