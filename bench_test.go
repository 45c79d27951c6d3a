// Package chordbalance's root benchmarks regenerate every table and
// figure of the paper at reduced trial counts, so `go test -bench=. -benchmem`
// doubles as a smoke reproduction of the whole evaluation. Use
// cmd/dhtsweep and cmd/dhtfig with -trials 100 for publication-strength
// numbers.
//
// Benchmark-to-artifact map:
//
//	BenchmarkTable1            -> Table I   (task distribution medians)
//	BenchmarkTable2            -> Table II  (churn runtime factors)
//	BenchmarkFigure1           -> Figure 1  (workload distribution)
//	BenchmarkFigure2_3         -> Figures 2-3 (unit-circle layouts)
//	BenchmarkFigure<4..14>     -> Figures 4-14 (workload histograms)
//	BenchmarkSectionVIB/C/D    -> §VI-B/C/D text results
//	BenchmarkAblation*         -> §VI-B-1 and DESIGN.md ablations
//	BenchmarkChordLookup       -> the O(log n) lookup cost the simulator
//	                              charges for joins and Sybil placement
//	BenchmarkChordReduceJob    -> the ChordReduce substrate end to end
package chordbalance_test

import (
	"fmt"
	"testing"

	"chordbalance/internal/chord"
	"chordbalance/internal/chordreduce"
	"chordbalance/internal/experiments"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

// benchOpt keeps benchmark iterations affordable; b.N loops still vary
// the seed so repeated iterations are not trivially cached work.
func benchOpt(i int) experiments.Options {
	return experiments.Options{Trials: 1, Seed: uint64(i) + 1}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table1(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 9 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table2(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != len(experiments.Table2Rates)*len(experiments.Table2Networks) {
			b.Fatal("table 2 incomplete")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, _, err := experiments.Figure1(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if h.Total() == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure2_3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RingFigure(false, uint64(i))) != 110 {
			b.Fatal("figure 2 wrong size")
		}
		if len(experiments.RingFigure(true, uint64(i))) != 110 {
			b.Fatal("figure 3 wrong size")
		}
	}
}

// benchmarkWorkloadFigure regenerates one histogram figure per iteration.
func benchmarkWorkloadFigure(b *testing.B, num int) {
	fig := experiments.Figures[num]
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWorkloadFigure(fig, benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.HistA.Total() == 0 || res.HistB.Total() == 0 {
			b.Fatal("empty histogram")
		}
	}
}

func BenchmarkFigure4(b *testing.B)  { benchmarkWorkloadFigure(b, 4) }
func BenchmarkFigure5(b *testing.B)  { benchmarkWorkloadFigure(b, 5) }
func BenchmarkFigure6(b *testing.B)  { benchmarkWorkloadFigure(b, 6) }
func BenchmarkFigure7(b *testing.B)  { benchmarkWorkloadFigure(b, 7) }
func BenchmarkFigure8(b *testing.B)  { benchmarkWorkloadFigure(b, 8) }
func BenchmarkFigure9(b *testing.B)  { benchmarkWorkloadFigure(b, 9) }
func BenchmarkFigure10(b *testing.B) { benchmarkWorkloadFigure(b, 10) }
func BenchmarkFigure11(b *testing.B) { benchmarkWorkloadFigure(b, 11) }
func BenchmarkFigure12(b *testing.B) { benchmarkWorkloadFigure(b, 12) }
func BenchmarkFigure13(b *testing.B) { benchmarkWorkloadFigure(b, 13) }
func BenchmarkFigure14(b *testing.B) { benchmarkWorkloadFigure(b, 14) }

func benchSummary(b *testing.B, run func(experiments.Options) ([]experiments.SummaryCell, error)) {
	for i := 0; i < b.N; i++ {
		cells, err := run(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

func BenchmarkSectionVIBaseline(b *testing.B) { benchSummary(b, experiments.BaselineSummary) }
func BenchmarkSectionVIBRandom(b *testing.B)  { benchSummary(b, experiments.RandomSummary) }
func BenchmarkSectionVICNeighbor(b *testing.B) {
	benchSummary(b, experiments.NeighborSummary)
}
func BenchmarkSectionVIDInvitation(b *testing.B) {
	benchSummary(b, experiments.InvitationSummary)
}

func BenchmarkAblationSybilThreshold(b *testing.B) {
	benchSummary(b, experiments.AblationSybilThreshold)
}
func BenchmarkAblationMaxSybils(b *testing.B) { benchSummary(b, experiments.AblationMaxSybils) }
func BenchmarkAblationChurnOnRandom(b *testing.B) {
	benchSummary(b, experiments.AblationChurnOnRandom)
}
func BenchmarkAblationConsumeMode(b *testing.B) {
	benchSummary(b, experiments.AblationConsumeMode)
}
func BenchmarkAblationDecisionCadence(b *testing.B) {
	benchSummary(b, experiments.AblationDecisionCadence)
}
func BenchmarkAblationAvoidRepeats(b *testing.B) {
	benchSummary(b, experiments.AblationAvoidRepeats)
}
func BenchmarkAblationChurnModel(b *testing.B) {
	benchSummary(b, experiments.AblationChurnModel)
}
func BenchmarkExtensionsVII(b *testing.B) { benchSummary(b, experiments.ExtensionsSummary) }
func BenchmarkAblationWorkloadSkew(b *testing.B) {
	benchSummary(b, experiments.AblationWorkloadSkew)
}
func BenchmarkAblationStreaming(b *testing.B) {
	benchSummary(b, experiments.AblationStreaming)
}
func BenchmarkVirtualServers(b *testing.B) { benchSummary(b, experiments.VirtualServers) }

// BenchmarkStrengthShare regenerates the §VII work-share measurement.
func BenchmarkStrengthShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.StrengthShare(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 15 {
			b.Fatal("share table incomplete")
		}
	}
}

// BenchmarkChurnCurve regenerates the footnote-2 churn-rate sweep.
func BenchmarkChurnCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ChurnCurve(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 8 {
			b.Fatal("curve incomplete")
		}
	}
}

// BenchmarkWorkSeries regenerates the §V-C work-per-tick observation.
func BenchmarkWorkSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.WorkSeries(50, benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 50 {
			b.Fatal("series incomplete")
		}
	}
}

// BenchmarkChordHopsTable regenerates the O(log n) validation table.
func BenchmarkChordHopsTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ChordHops(experiments.Options{Trials: 50, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 4 {
			b.Fatal("hops table incomplete")
		}
	}
}

// BenchmarkOverlayHops regenerates the Chord-vs-Symphony comparison.
func BenchmarkOverlayHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.OverlayHops(experiments.Options{Trials: 100, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 4 {
			b.Fatal("overlay table incomplete")
		}
	}
}

// BenchmarkTraffic regenerates the §VI message-overhead comparison.
func BenchmarkTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Traffic(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 7 {
			b.Fatal("traffic table incomplete")
		}
	}
}

// BenchmarkResilience regenerates the replication-resilience staircase.
func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Resilience(experiments.Options{Trials: 1, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 20 {
			b.Fatal("resilience table incomplete")
		}
	}
}

// BenchmarkArcTable regenerates the §III arc-length analysis.
func BenchmarkArcTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ArcTable(benchOpt(i))
		if err != nil {
			b.Fatal(err)
		}
		if t.NumRows() != 4 {
			b.Fatal("arc table incomplete")
		}
	}
}

// BenchmarkSybilPlacement measures how quickly a node can synthesize an
// identifier inside a target arc — the operation the paper's reference
// [21] shows to be "extremely quick", and the basis of every Sybil
// strategy.
func BenchmarkSybilPlacement(b *testing.B) {
	rng := xrand.New(7)
	g := keys.NewGenerator(8)
	a, c := g.Next(), g.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ids.UniformInRange(rng, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordLookup validates the O(log n) lookup-cost model the tick
// simulator charges for joins and Sybil placements.
func BenchmarkChordLookup(b *testing.B) {
	nw := chord.NewNetwork(chord.Config{})
	g := keys.NewGenerator(1)
	entry, err := nw.Create(g.Next())
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 128; i++ {
		if _, err := nw.Join(g.Next(), entry); err != nil {
			b.Fatal(err)
		}
		nw.StabilizeAll()
	}
	if _, ok := nw.StabilizeUntilConverged(512); !ok {
		b.Fatal("ring did not converge")
	}
	nw.FixAllFingers()
	rng := xrand.New(2)
	totalHops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hops, err := entry.Lookup(ids.Random(rng))
		if err != nil {
			b.Fatal(err)
		}
		totalHops += hops
	}
	b.ReportMetric(float64(totalHops)/float64(b.N), "hops/lookup")
}

// BenchmarkChordReduceJob runs the full MapReduce substrate end to end.
func BenchmarkChordReduceJob(b *testing.B) {
	nw := chord.NewNetwork(chord.Config{})
	g := keys.NewGenerator(3)
	entry, err := nw.Create(g.Next())
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		if _, err := nw.Join(g.Next(), entry); err != nil {
			b.Fatal(err)
		}
		nw.StabilizeAll()
	}
	if _, ok := nw.StabilizeUntilConverged(128); !ok {
		b.Fatal("ring did not converge")
	}
	nw.FixAllFingers()
	inputs := map[string]string{}
	for i := 0; i < 16; i++ {
		inputs[fmt.Sprintf("chunk-%02d", i)] = "alpha beta gamma delta alpha beta alpha"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chordreduce.NewRunner(nw, entry, chordreduce.WordCount(inputs)).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Output["alpha"] != "48" {
			b.Fatalf("alpha = %q", res.Output["alpha"])
		}
	}
}
