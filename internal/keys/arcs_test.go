package keys

import (
	"math"
	"testing"

	"chordbalance/internal/ids"
)

func TestAnalyzeArcsEmpty(t *testing.T) {
	a := AnalyzeArcs(nil)
	if a.Nodes != 0 || a.MeanFraction != 0 {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestAnalyzeArcsSingleNode(t *testing.T) {
	a := AnalyzeArcs([]ids.ID{ids.FromUint64(7)})
	if a.Nodes != 1 || a.MeanFraction != 1 || a.MedianToMean != 1 {
		t.Errorf("single node: %+v", a)
	}
}

func TestAnalyzeArcsEvenPlacement(t *testing.T) {
	a := AnalyzeArcs(EvenIDs(64, ids.Zero))
	if math.Abs(a.MeanFraction-1.0/64) > 1e-9 {
		t.Errorf("mean = %v", a.MeanFraction)
	}
	if math.Abs(a.MedianToMean-1) > 1e-6 || math.Abs(a.MaxToMean-1) > 1e-6 {
		t.Errorf("even arcs must be uniform: %+v", a)
	}
	// Uniform arcs are maximally far from exponential: KS near 1-1/e.
	if a.KSStatistic < 0.4 {
		t.Errorf("KS for even placement = %v, want large", a.KSStatistic)
	}
}

func TestAnalyzeArcsSHA1MatchesExponential(t *testing.T) {
	g := NewGenerator(123)
	a := AnalyzeArcs(g.NodeIDs(2000))
	if math.Abs(a.MeanFraction-1.0/2000) > 1e-7 {
		t.Errorf("mean fraction = %v", a.MeanFraction)
	}
	// Median/mean must sit near ln 2 — the Table I phenomenon.
	if math.Abs(a.MedianToMean-math.Ln2) > 0.08 {
		t.Errorf("median/mean = %v, want ~%v", a.MedianToMean, math.Ln2)
	}
	// Max/mean near ln n + gamma.
	want := ExpectedMaxToMean(2000)
	if a.MaxToMean < want*0.6 || a.MaxToMean > want*1.6 {
		t.Errorf("max/mean = %v, want ~%v", a.MaxToMean, want)
	}
	// KS consistent with the exponential model (5% critical value
	// 1.36/sqrt(n) ≈ 0.0304; allow slack for the asymptotic approximation).
	if a.KSStatistic > 0.05 {
		t.Errorf("KS = %v, SHA-1 arcs should look exponential", a.KSStatistic)
	}
}

func TestExpectedMaxToMean(t *testing.T) {
	if ExpectedMaxToMean(0) != 0 {
		t.Error("n=0 must be 0")
	}
	// ln(1000)+gamma ~ 7.485: the paper's no-strategy factor for 1000
	// nodes (Table II: 7.476).
	if got := ExpectedMaxToMean(1000); math.Abs(got-7.485) > 0.01 {
		t.Errorf("ExpectedMaxToMean(1000) = %v", got)
	}
}
