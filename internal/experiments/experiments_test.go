package experiments

import (
	"strings"
	"testing"

	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
)

func TestTrialSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for cell := 0; cell < 10; cell++ {
		for trial := 0; trial < 10; trial++ {
			s := trialSeed(42, cell, trial)
			if seen[s] {
				t.Fatalf("duplicate seed for cell=%d trial=%d", cell, trial)
			}
			seen[s] = true
		}
	}
	if trialSeed(1, 0, 0) == trialSeed(2, 0, 0) {
		t.Error("base seed must matter")
	}
	if trialSeed(1, 0, 0) != trialSeed(1, 0, 0) {
		t.Error("seeds must be deterministic")
	}
}

func TestSpecConfig(t *testing.T) {
	sp := Spec{Nodes: 10, Tasks: 100, StrategyName: "random", ChurnRate: 0.5,
		Heterogeneous: true, WorkByStrength: true, MaxSybils: 7,
		SybilThreshold: 3, NumSuccessors: 9}
	cfg := sp.Config(99)
	if cfg.Nodes != 10 || cfg.Tasks != 100 || cfg.Seed != 99 ||
		cfg.ChurnRate != 0.5 || !cfg.Heterogeneous || !cfg.WorkByStrength ||
		cfg.MaxSybils != 7 || cfg.SybilThreshold != 3 || cfg.NumSuccessors != 9 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Strategy == nil || cfg.Strategy.Name() != "random" {
		t.Error("strategy not constructed")
	}
	// Fresh instances per call (observable for stateful strategies, which
	// are pointer-typed; stateless ones are value types and compare equal).
	nsp := Spec{Nodes: 1, Tasks: 1, StrategyName: "neighbor"}
	if nsp.Config(1).Strategy == nsp.Config(1).Strategy {
		t.Error("Config must build fresh strategy instances")
	}
	if (Spec{Nodes: 1, Tasks: 1}).Config(0).Strategy != nil {
		t.Error("empty strategy name must mean nil (baseline)")
	}
}

func TestSpecConfigUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown strategy must panic")
		}
	}()
	Spec{Nodes: 1, Tasks: 1, StrategyName: "bogus"}.Config(0)
}

func TestFactorStat(t *testing.T) {
	sp := Spec{Nodes: 50, Tasks: 2500} // deterministic baseline
	st, err := SpecFactor(sp, 0, Options{Trials: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 4 {
		t.Errorf("N = %d", st.N)
	}
	if st.Mean < 1 {
		t.Errorf("mean factor %v < 1 is impossible", st.Mean)
	}
	if st.Min > st.Mean || st.Max < st.Mean {
		t.Errorf("ordering broken: %+v", st)
	}
	if !strings.Contains(st.String(), "trials") {
		t.Errorf("String() = %q", st.String())
	}
	// Same options reproduce exactly.
	st2, err := SpecFactor(sp, 0, Options{Trials: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st != st2 {
		t.Errorf("stat not reproducible: %+v vs %+v", st, st2)
	}
}

func TestFactorStatFailurePropagates(t *testing.T) {
	fn := func(seed uint64) sim.Config {
		// MaxTicks too small to finish: every trial fails.
		return sim.Config{Nodes: 1, Tasks: 100, MaxTicks: 1, Seed: seed}
	}
	if _, err := FactorStat(fn, 0, Options{Trials: 2}); err == nil {
		t.Error("incomplete trials must surface as errors")
	}
}

func TestTable1SmallRun(t *testing.T) {
	cells, err := Table1(Options{Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		// Medians land in the right ballpark: between 40% and 100% of the
		// paper's value is impossible to miss with correct assignment
		// (the paper's own numbers are ~69% of the mean).
		lo, hi := c.PaperMedian*0.7, c.PaperMedian*1.3
		if c.MedianMean < lo || c.MedianMean > hi {
			t.Errorf("%d/%d: median %v outside [%v, %v]",
				c.Nodes, c.Tasks, c.MedianMean, lo, hi)
		}
		if c.SigmaMean < c.PaperSigma*0.6 || c.SigmaMean > c.PaperSigma*1.4 {
			t.Errorf("%d/%d: sigma %v vs paper %v", c.Nodes, c.Tasks, c.SigmaMean, c.PaperSigma)
		}
	}
	out := Table1Report(cells).String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "69.410") {
		t.Errorf("report missing content:\n%s", out)
	}
}

// TestFreshLoadsTable1Shape verifies the core Table I claim on one fresh
// network: every key has exactly one owner, the median workload is far
// below the mean (tasks/nodes) and σ is on the order of the mean, because
// SHA-1 arcs follow an exponential distribution.
func TestFreshLoadsTable1Shape(t *testing.T) {
	loads, err := freshLoads(1000, 100000, 42)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, l := range loads {
		sum += l
	}
	if len(loads) != 1000 || sum != 100000 {
		t.Fatalf("%d loads summing to %d, want 1000 summing to 100000", len(loads), sum)
	}
	// Paper: median 69.4, σ 137. Allow generous slack for a single trial.
	s := stats.SummarizeInts(loads)
	if s.Median < 50 || s.Median > 90 {
		t.Errorf("median = %v, want ~69", s.Median)
	}
	if s.StdDev < 80 || s.StdDev > 200 {
		t.Errorf("sigma = %v, want ~100-140", s.StdDev)
	}
}

func TestTable2TinyGrid(t *testing.T) {
	// Shrink the grid so the test runs in seconds; restore afterwards.
	oldRates, oldNets := Table2Rates, Table2Networks
	defer func() { Table2Rates, Table2Networks = oldRates, oldNets }()
	Table2Rates = []float64{0, 0.01}
	Table2Networks = Table2Networks[2:3] // 100 nodes / 10k tasks

	cells, err := Table2(Options{Trials: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].ChurnRate != 0 || cells[1].ChurnRate != 0.01 {
		t.Errorf("rates wrong: %+v", cells)
	}
	if cells[1].Stat.Mean >= cells[0].Stat.Mean {
		t.Errorf("churn must reduce the factor: %v -> %v",
			cells[0].Stat.Mean, cells[1].Stat.Mean)
	}
	out := Table2Report(cells).String()
	if !strings.Contains(out, "churn rate") {
		t.Errorf("report:\n%s", out)
	}
}

func TestFigure1Shape(t *testing.T) {
	h, median, err := Figure1(Options{Trials: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 1000 {
		t.Fatalf("histogram total = %d, want 1000 nodes", h.Total())
	}
	// Paper: median ~692 for mean 1000; the bulk below 1000, a tail past
	// 10000.
	if median < 550 || median > 850 {
		t.Errorf("median = %v, want ~692", median)
	}
}

func TestRingFigure(t *testing.T) {
	pts := RingFigure(false, 4)
	if len(pts) != 110 {
		t.Fatalf("points = %d, want 10 nodes + 100 tasks", len(pts))
	}
	nodes, tasks := 0, 0
	for _, p := range pts {
		r := p.X*p.X + p.Y*p.Y
		if r < 0.99 || r > 1.01 {
			t.Fatalf("point off the unit circle: %+v", p)
		}
		switch p.Kind {
		case "node":
			nodes++
		case "task":
			tasks++
		}
	}
	if nodes != 10 || tasks != 100 {
		t.Errorf("nodes=%d tasks=%d", nodes, tasks)
	}
	// Even placement must differ from hashed placement.
	even := RingFigure(true, 4)
	if even[0] == pts[0] && even[1] == pts[1] {
		t.Error("even and hashed layouts coincide")
	}
}

func TestRunWorkloadFigureEarlyTick(t *testing.T) {
	fig := Figures[5] // tick 5: cheap
	res, err := RunWorkloadFigure(fig, Options{Trials: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.HistA.Total() == 0 || res.HistB.Total() == 0 {
		t.Fatal("empty histograms")
	}
	// Churn at tick 5 barely changes the picture, but both sides must
	// account every live host exactly once.
	if res.HistA.Total() != res.AliveA || res.HistB.Total() != res.AliveB {
		t.Errorf("histogram totals %d/%d vs alive %d/%d",
			res.HistA.Total(), res.HistB.Total(), res.AliveA, res.AliveB)
	}
	if !strings.Contains(res.Summary(), "Figure 5") {
		t.Errorf("summary = %q", res.Summary())
	}
}

func TestRunWorkloadFigure8RandomBeatsNone(t *testing.T) {
	res, err := RunWorkloadFigure(Figures[8], Options{Trials: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: at tick 35 random injection has far fewer idle
	// hosts than no strategy.
	if res.IdleB >= res.IdleA {
		t.Errorf("random injection idle %d, none idle %d: balancing failed",
			res.IdleB, res.IdleA)
	}
	// And its maximum workload is no worse.
	if res.MaxB > res.MaxA {
		t.Errorf("random injection max %d exceeds baseline max %d", res.MaxB, res.MaxA)
	}
}

func TestFiguresIndexComplete(t *testing.T) {
	for n := 4; n <= 14; n++ {
		fig, ok := Figures[n]
		if !ok {
			t.Errorf("figure %d missing", n)
			continue
		}
		if fig.Number != n {
			t.Errorf("figure %d numbered %d", n, fig.Number)
		}
		if fig.SpecA.Nodes != 1000 || fig.SpecA.Tasks != 100000 {
			t.Errorf("figure %d wrong network", n)
		}
	}
}

func TestSummaryMachinery(t *testing.T) {
	cells := []SummaryCell{
		{Name: "tiny baseline", Spec: Spec{Nodes: 50, Tasks: 2500}, Paper: 5.0},
		{Name: "tiny random", Spec: Spec{Nodes: 50, Tasks: 2500, StrategyName: "random"}},
	}
	out, err := runSummary(cells, Options{Trials: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Stat.Mean >= out[0].Stat.Mean {
		t.Errorf("random (%v) must beat baseline (%v)", out[1].Stat.Mean, out[0].Stat.Mean)
	}
	rep := SummaryReport("demo", out).String()
	if !strings.Contains(rep, "tiny baseline") || !strings.Contains(rep, "5.000") {
		t.Errorf("report:\n%s", rep)
	}
	// Cells without paper values render an empty paper column, not 0.000.
	if strings.Count(rep, "5.000") != 1 {
		t.Errorf("unexpected paper values:\n%s", rep)
	}
}
