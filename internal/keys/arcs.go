package keys

import (
	"math"
	"sort"

	"chordbalance/internal/ids"
)

// ArcAnalysis quantifies §III's claim about how SHA-1 placement skews
// ownership. For n uniform node IDs the arc lengths follow (asymptotically)
// an exponential distribution with mean 1/n, which makes each node's
// expected workload share exponential too: the median arc is ln 2 ≈ 0.693
// of the mean — exactly the ~69% median-to-mean ratio of Table I — and the
// workload histogram takes the heavy-tailed shape of Figure 1 (the paper
// informally calls it Zipf-like).
type ArcAnalysis struct {
	Nodes int
	// MeanFraction and MedianFraction describe the arc-length sample.
	MeanFraction   float64
	MedianFraction float64
	// MedianToMean is MedianFraction/MeanFraction; exponential arcs give
	// ln 2 ≈ 0.693.
	MedianToMean float64
	// MaxToMean is the largest arc over the mean; extreme-value theory
	// for exponentials gives ≈ ln n + γ.
	MaxToMean float64
	// KSStatistic is the Kolmogorov-Smirnov distance between the
	// empirical arc distribution and Exponential(mean). Values well under
	// ~1.36/sqrt(n) are consistent with the exponential model at the 5%
	// level.
	KSStatistic float64
}

// AnalyzeArcs measures the arc-length distribution of the given node IDs:
// each node's share of the key space, the arc that ends at it. nodeIDs is
// not modified.
func AnalyzeArcs(nodeIDs []ids.ID) ArcAnalysis {
	n := len(nodeIDs)
	a := ArcAnalysis{Nodes: n}
	if n == 0 {
		return a
	}
	byID := append([]ids.ID(nil), nodeIDs...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].Less(byID[j]) })
	sorted := make([]float64, n)
	for i, id := range byID {
		sorted[i] = ids.ArcFraction(byID[(i+n-1)%n], id) // a lone node's arc is the whole ring: 1
	}
	sort.Float64s(sorted)
	var sum float64
	for _, f := range sorted {
		sum += f
	}
	a.MeanFraction = sum / float64(n)
	if n%2 == 1 {
		a.MedianFraction = sorted[n/2]
	} else {
		a.MedianFraction = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	if a.MeanFraction > 0 {
		a.MedianToMean = a.MedianFraction / a.MeanFraction
		a.MaxToMean = sorted[n-1] / a.MeanFraction
	}
	// One-sample KS against Exponential(rate = 1/mean).
	rate := 1 / a.MeanFraction
	var ks float64
	for i, x := range sorted {
		cdf := 1 - math.Exp(-rate*x)
		lo := math.Abs(cdf - float64(i)/float64(n))
		hi := math.Abs(cdf - float64(i+1)/float64(n))
		if lo > ks {
			ks = lo
		}
		if hi > ks {
			ks = hi
		}
	}
	a.KSStatistic = ks
	return a
}

// ExpectedMaxToMean predicts the largest arc relative to the mean for n
// nodes: ln n + γ (Euler-Mascheroni). This is also the no-strategy,
// no-churn runtime factor the simulator measures, since the job finishes
// only when the most-loaded node does.
func ExpectedMaxToMean(n int) float64 {
	const eulerGamma = 0.5772156649015329
	if n < 1 {
		return 0
	}
	return math.Log(float64(n)) + eulerGamma
}
