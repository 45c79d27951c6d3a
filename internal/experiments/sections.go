package experiments

import (
	"fmt"

	"chordbalance/internal/report"
	"chordbalance/internal/sim"
)

// SummaryCell is one row of a §VI text-result reproduction: a named
// configuration, its measured factor, and what the paper reports (0 when
// the paper gives only a qualitative statement).
type SummaryCell struct {
	Name  string
	Cell  Cell
	Stat  TrialStat
	Paper float64
	Note  string
}

func runSummary(cellsIn []SummaryCell, opt Options) ([]SummaryCell, error) {
	out := make([]SummaryCell, len(cellsIn))
	for i, c := range cellsIn {
		st, err := FactorStat(c.Cell, i, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		c.Stat = st
		out[i] = c
	}
	return out, nil
}

// SummaryReport renders summary cells as a table.
func SummaryReport(title string, cells []SummaryCell) *report.Table {
	t := report.NewTable(title, "configuration", "factor", "±95%", "paper", "note")
	for _, c := range cells {
		paper := ""
		if c.Paper != 0 {
			paper = fmt.Sprintf("%.3f", c.Paper)
		}
		t.AddRow(c.Name, fmt.Sprintf("%.3f", c.Stat.Mean),
			fmt.Sprintf("%.3f", c.Stat.CI95), paper, c.Note)
	}
	return t
}

// RandomSummary reproduces the §VI-B text results for random injection:
// factors on the reference networks, the task-ratio effect, and
// heterogeneity.
func RandomSummary(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	cells := []SummaryCell{
		{
			Name: "random 1000n/100k", Paper: 1.7,
			Note: "paper: mean never above 1.7, as low as 1.36",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "random 1000n/1M", Paper: 1.25,
			Note: "paper: 1.12-1.25; ~0.8 below the 100k network",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 1000000}},
		},
		{
			Name: "random 100n/100k", Paper: 0,
			Note: "paper: same ratio as 1000n/1M, slightly faster (-0.086)",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 100, Tasks: 100000}},
		},
		{
			Name: "random hetero 1000n/100k (strength work)", Paper: 4.052,
			Note: "paper: worst hetero mean 4.052 at 100 tasks/node",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true, WorkByStrength: true}},
		},
		{
			Name: "random hetero 1000n/1M (strength work)", Paper: 1.955,
			Note: "paper: worst hetero mean 1.955 at 1000 tasks/node",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 1000000, Heterogeneous: true, WorkByStrength: true}},
		},
	}
	return runSummary(cells, opt)
}

// NeighborSummary reproduces the §VI-C text results for the neighbor and
// smart-neighbor strategies.
func NeighborSummary(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	cells := []SummaryCell{
		{
			Name: "neighbor 1000n/100k", Paper: 5.033,
			Note: "paper: 2.4 below no-strategy (7.476)",
			Cell: Cell{Strategy: "neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "neighbor 100n/10k", Paper: 3.006,
			Note: "paper: 2 below no-strategy (5.043)",
			Cell: Cell{Strategy: "neighbor", Config: sim.Config{Nodes: 100, Tasks: 10000}},
		},
		{
			Name: "smart-neighbor 1000n/100k", Paper: 0,
			Note: "paper: probing improves the factor by ~1.2 on average",
			Cell: Cell{Strategy: "smart-neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "neighbor 1000n/100k, 10 successors", Paper: 0,
			Note: "paper: larger successor list improves by ~0.3",
			Cell: Cell{Strategy: "neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000, NumSuccessors: 10}},
		},
		{
			Name: "neighbor hetero 1000n/100k (strength work)", Paper: 0,
			Note: "paper: heterogeneous base runtime is worse",
			Cell: Cell{Strategy: "neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true, WorkByStrength: true}},
		},
		{
			Name: "neighbor hetero 1000n/100k (single-task work)", Paper: 0,
			Note: "paper footnote 3: fine when only Sybil counts differ",
			Cell: Cell{Strategy: "neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true}},
		},
	}
	return runSummary(cells, opt)
}

// InvitationSummary reproduces the §VI-D text results.
func InvitationSummary(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	cells := []SummaryCell{
		{
			Name: "invitation 100n/100k", Paper: 3.749,
			Cell: Cell{Strategy: "invitation", Config: sim.Config{Nodes: 100, Tasks: 100000}},
		},
		{
			Name: "invitation 1000n/100k", Paper: 5.673,
			Cell: Cell{Strategy: "invitation", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "invitation hetero 1000n/100k (strength work)", Paper: 6.097,
			Note: "paper: strength-consumption heterogeneity fares much worse",
			Cell: Cell{Strategy: "invitation", Config: sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true, WorkByStrength: true}},
		},
	}
	return runSummary(cells, opt)
}

// BaselineSummary measures the no-strategy factors the §VI comparisons
// refer back to.
func BaselineSummary(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	cells := []SummaryCell{
		{Name: "none 1000n/100k", Paper: 7.476, Cell: Cell{Config: sim.Config{Nodes: 1000, Tasks: 100000}}},
		{Name: "none 100n/10k", Paper: 5.043, Cell: Cell{Config: sim.Config{Nodes: 100, Tasks: 10000}}},
		{Name: "none 100n/100k", Paper: 5.022, Cell: Cell{Config: sim.Config{Nodes: 100, Tasks: 100000}}},
		// §VI-A: "The runtime for heterogeneous versus homogeneous
		// networks had no significant differences" (churn strategy,
		// single-task consumption).
		{
			Name: "churn 0.01 homogeneous 1000n/100k", Paper: 3.721,
			Cell: Cell{Config: sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: 0.01}},
		},
		{
			Name: "churn 0.01 heterogeneous 1000n/100k", Paper: 3.721,
			Note: "paper: no significant difference vs homogeneous",
			Cell: Cell{Config: sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: 0.01, Heterogeneous: true}},
		},
	}
	return runSummary(cells, opt)
}
