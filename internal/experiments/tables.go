package experiments

import (
	"fmt"

	"chordbalance/internal/keys"
	"chordbalance/internal/parallel"
	"chordbalance/internal/report"
	"chordbalance/internal/ring"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
)

// Table1Cell is one row of Table I: the median workload and its standard
// deviation for a fresh SHA-1 network, averaged over trials.
type Table1Cell struct {
	Nodes, Tasks            int
	MedianMean, SigmaMean   float64
	PaperMedian, PaperSigma float64
}

// Table1Configs are the nine (nodes, tasks) combinations of Table I with
// the paper's reported values.
var Table1Configs = []Table1Cell{
	{Nodes: 1000, Tasks: 100000, PaperMedian: 69.410, PaperSigma: 137.27},
	{Nodes: 1000, Tasks: 500000, PaperMedian: 346.570, PaperSigma: 499.169},
	{Nodes: 1000, Tasks: 1000000, PaperMedian: 692.300, PaperSigma: 996.982},
	{Nodes: 5000, Tasks: 100000, PaperMedian: 13.810, PaperSigma: 20.477},
	{Nodes: 5000, Tasks: 500000, PaperMedian: 69.280, PaperSigma: 100.344},
	{Nodes: 5000, Tasks: 1000000, PaperMedian: 138.360, PaperSigma: 200.564},
	{Nodes: 10000, Tasks: 100000, PaperMedian: 7.000, PaperSigma: 10.492},
	{Nodes: 10000, Tasks: 500000, PaperMedian: 34.550, PaperSigma: 50.366},
	{Nodes: 10000, Tasks: 1000000, PaperMedian: 69.180, PaperSigma: 100.319},
}

// Table1 reproduces Table I: the median distribution of tasks among nodes
// (the paper averaged 100 trials per row).
func Table1(opt Options) ([]Table1Cell, error) {
	opt = opt.withDefaults(20)
	out := make([]Table1Cell, len(Table1Configs))
	for c, cell := range Table1Configs {
		trials, err := parallel.MapErr(opt.Trials, opt.Workers, func(i int) (stats.Summary, error) {
			loads, err := freshLoads(cell.Nodes, cell.Tasks, trialSeed(opt.Seed, c, i))
			return stats.SummarizeInts(loads), err
		})
		if err != nil {
			return nil, fmt.Errorf("table1 %d nodes/%d tasks: %w", cell.Nodes, cell.Tasks, err)
		}
		var med, sig stats.Online
		for _, s := range trials {
			med.Add(s.Median)
			sig.Add(s.StdDev)
		}
		cell.MedianMean = med.Mean()
		cell.SigmaMean = sig.Mean()
		out[c] = cell
	}
	return out, nil
}

// freshLoads returns every node's key count, in ring order, on one fresh
// SHA-1 network: the stream salted by salt gives nodes distinct node IDs
// and then tasks keys, and each key goes to the first node clockwise at
// or after it on the ring every simulation trial seeds.
func freshLoads(nodes, tasks int, salt uint64) ([]int, error) {
	g := keys.NewGenerator(salt)
	r := ring.New[struct{}]()
	if _, err := r.Build(g.NodeIDs(nodes), make([]struct{}, nodes)); err != nil {
		return nil, err
	}
	if err := r.SeedFrom(tasks, g.Reserve(tasks)); err != nil {
		return nil, err
	}
	return r.Workloads(), nil
}

// Table1Report renders Table I with paper-vs-measured columns.
func Table1Report(cells []Table1Cell) *report.Table {
	t := report.NewTable("Table I: median distribution of tasks among nodes",
		"nodes", "tasks", "median", "paper median", "sigma", "paper sigma")
	for _, c := range cells {
		t.AddRowf(c.Nodes, c.Tasks, c.MedianMean, c.PaperMedian, c.SigmaMean, c.PaperSigma)
	}
	return t
}

// Table2Cell is one cell of Table II: the mean runtime factor of the
// churn strategy for one (rate, network) pair.
type Table2Cell struct {
	ChurnRate    float64
	Nodes, Tasks int
	Stat         TrialStat
	Paper        float64
}

// Table2Rates and Table2Networks define the grid of Table II.
var (
	Table2Rates    = []float64{0, 0.0001, 0.001, 0.01}
	Table2Networks = []struct{ Nodes, Tasks int }{
		{1000, 100000},
		{1000, 1000000},
		{100, 10000},
		{100, 100000},
		{100, 1000000},
	}
	// table2Paper[rateIdx][netIdx] are the paper's reported factors.
	table2Paper = [4][5]float64{
		{7.476, 7.467, 5.043, 5.022, 5.016},
		{7.122, 5.732, 4.934, 4.362, 3.077},
		{6.047, 3.674, 4.391, 3.019, 1.863},
		{3.721, 2.104, 3.076, 1.873, 1.309},
	}
)

// Table2 reproduces Table II: runtime factors under the Churn strategy
// across churn rates and network shapes (paper: 100 trials per cell,
// homogeneous, one task per tick).
func Table2(opt Options) ([]Table2Cell, error) {
	opt = opt.withDefaults(5)
	var out []Table2Cell
	cell := 0
	for ri, rate := range Table2Rates {
		for ni, net := range Table2Networks {
			c := Cell{Config: sim.Config{Nodes: net.Nodes, Tasks: net.Tasks, ChurnRate: rate}}
			st, err := FactorStat(c, cell, opt)
			if err != nil {
				return nil, fmt.Errorf("table2 rate=%v net=%d/%d: %w", rate, net.Nodes, net.Tasks, err)
			}
			out = append(out, Table2Cell{
				ChurnRate: rate, Nodes: net.Nodes, Tasks: net.Tasks,
				Stat: st, Paper: table2Paper[ri][ni],
			})
			cell++
		}
	}
	return out, nil
}

// Table2Report renders Table II in the paper's layout (one row per churn
// rate, one column pair per network).
func Table2Report(cells []Table2Cell) *report.Table {
	headers := []string{"churn rate"}
	for _, net := range Table2Networks {
		label := fmt.Sprintf("%dn/%dk tasks", net.Nodes, net.Tasks/1000)
		headers = append(headers, label, "paper")
	}
	t := report.NewTable("Table II: runtime factor under the Churn strategy", headers...)
	byKey := map[string]Table2Cell{}
	for _, c := range cells {
		byKey[fmt.Sprintf("%v/%d/%d", c.ChurnRate, c.Nodes, c.Tasks)] = c
	}
	for _, rate := range Table2Rates {
		row := []any{fmt.Sprintf("%g", rate)}
		for _, net := range Table2Networks {
			c := byKey[fmt.Sprintf("%v/%d/%d", rate, net.Nodes, net.Tasks)]
			row = append(row, c.Stat.Mean, c.Paper)
		}
		t.AddRowf(row...)
	}
	return t
}
