// Package stats provides the descriptive statistics and histogram tooling
// the experiment harness uses to reproduce the paper's tables and figures:
// median/σ summaries (Table I), runtime-factor aggregation over 100-trial
// batches (Table II), and log-binned workload histograms (Figures 1, 4-14).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments and order statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64 // population standard deviation, as in the paper's σ
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N))
	s.Median = medianSorted(sorted)
	return s
}

func medianSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// SummarizeInts converts and summarizes an integer sample.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty sample or an
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Gini returns the Gini coefficient of a non-negative sample: 0 for a
// perfectly even distribution, approaching 1 as all mass concentrates on a
// single element. The paper's "imbalance" maps naturally onto this.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	nf := float64(n)
	return (2*cum)/(nf*total) - (nf+1)/nf
}

// GiniInts is Gini over an integer sample.
func GiniInts(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Gini(fs)
}

// Online accumulates a running mean and variance using Welford's algorithm.
// It lets the sweep harness aggregate 100-trial batches without retaining
// every sample.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations seen.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n == 0 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation (0 for an empty accumulator).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 for an empty accumulator).
func (o *Online) Max() float64 { return o.max }

// ConfidenceInterval95 returns the half-width of the 95% confidence
// interval of the mean, using the normal approximation appropriate for the
// 100-trial batches the paper reports.
func (o *Online) ConfidenceInterval95() float64 {
	if o.n < 2 {
		return 0
	}
	// Sample (not population) standard error.
	s := math.Sqrt(o.m2 / float64(o.n-1))
	return 1.96 * s / math.Sqrt(float64(o.n))
}
