package experiments

import (
	"fmt"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/report"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
)

// histMax is the top edge of the figures' workload histograms; workloads
// above it land in the overflow bin (Figure 1 shows a handful of nodes
// past 10,000 tasks).
const histMax = 100000

// newWorkloadHistogram builds the log-binned histogram shape shared by
// every workload figure.
func newWorkloadHistogram() *stats.Histogram {
	return stats.NewLogHistogram(histMax, 3)
}

// Figure1 reproduces the workload probability distribution of a fresh
// 1000-node / 1,000,000-task network (Figure 1): the returned histogram
// holds per-node workload counts; the median is returned alongside.
func Figure1(opt Options) (*stats.Histogram, float64, error) {
	opt = opt.withDefaults(5)
	h := newWorkloadHistogram()
	var medians stats.Online
	for i := 0; i < opt.Trials; i++ {
		loads, err := freshLoads(1000, 1000000, trialSeed(opt.Seed, 0, i))
		if err != nil {
			return nil, 0, err
		}
		for _, l := range loads {
			h.AddInt(l)
		}
		medians.Add(stats.SummarizeInts(loads).Median)
	}
	return h, medians.Mean(), nil
}

// RingFigure produces the unit-circle embedding of Figures 2 (SHA-1 node
// placement) and 3 (evenly spaced nodes): 10 nodes and 100 tasks.
func RingFigure(even bool, seed uint64) []report.Point {
	g := keys.NewGenerator(seed)
	var nodeIDs []ids.ID
	if even {
		nodeIDs = keys.EvenIDs(10, ids.Zero)
	} else {
		nodeIDs = g.NodeIDs(10)
	}
	taskKeys := g.TaskKeys(100)
	pts := make([]report.Point, 0, len(nodeIDs)+len(taskKeys))
	for _, id := range nodeIDs {
		x, y := id.XY()
		pts = append(pts, report.Point{X: x, Y: y, Kind: "node"})
	}
	for _, k := range taskKeys {
		x, y := k.XY()
		pts = append(pts, report.Point{X: x, Y: y, Kind: "task"})
	}
	return pts
}

// WorkloadFigure describes one of the paper's histogram figures (4-14):
// two networks with identical starting configurations compared at a tick.
type WorkloadFigure struct {
	Number int
	Tick   int
	LabelA string
	CellA  Cell
	LabelB string
	CellB  Cell
}

// The networks the histogram figures compare: 1000 hosts and 100k tasks,
// homogeneous or heterogeneous, without or with churn 0.01.
var (
	figNet    = sim.Config{Nodes: 1000, Tasks: 100000}
	figChurn  = sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: 0.01}
	figHetero = sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true}
)

// Figures indexes the paper's workload-distribution figures by number.
var Figures = map[int]WorkloadFigure{
	4:  {Number: 4, Tick: 0, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "churn 0.01", CellB: Cell{Config: figChurn}},
	5:  {Number: 5, Tick: 5, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "churn 0.01", CellB: Cell{Config: figChurn}},
	6:  {Number: 6, Tick: 35, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "churn 0.01", CellB: Cell{Config: figChurn}},
	7:  {Number: 7, Tick: 5, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "random injection", CellB: Cell{Strategy: "random", Config: figNet}},
	8:  {Number: 8, Tick: 35, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "random injection", CellB: Cell{Strategy: "random", Config: figNet}},
	9:  {Number: 9, Tick: 35, LabelA: "churn 0.01", CellA: Cell{Config: figChurn}, LabelB: "random injection", CellB: Cell{Strategy: "random", Config: figNet}},
	10: {Number: 10, Tick: 35, LabelA: "hetero, no strategy", CellA: Cell{Config: figHetero}, LabelB: "hetero, random injection", CellB: Cell{Strategy: "random", Config: figHetero}},
	11: {Number: 11, Tick: 35, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "neighbor injection", CellB: Cell{Strategy: "neighbor", Config: figNet}},
	12: {Number: 12, Tick: 35, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "smart neighbor", CellB: Cell{Strategy: "smart-neighbor", Config: figNet}},
	13: {Number: 13, Tick: 35, LabelA: "no strategy", CellA: Cell{Config: figNet}, LabelB: "invitation", CellB: Cell{Strategy: "invitation", Config: figNet}},
	14: {Number: 14, Tick: 35, LabelA: "smart neighbor", CellA: Cell{Strategy: "smart-neighbor", Config: figNet}, LabelB: "invitation", CellB: Cell{Strategy: "invitation", Config: figNet}},
}

// FigureResult holds the two histograms of one workload figure plus the
// snapshot summary statistics.
type FigureResult struct {
	Figure         WorkloadFigure
	HistA, HistB   *stats.Histogram
	IdleA, IdleB   int
	MaxA, MaxB     int
	AliveA, AliveB int
}

// RunWorkloadFigure executes the two networks of a figure with matched
// seeds and returns the host-workload histograms at the figure's tick.
// Trials are aggregated into the same histogram (the paper plots a single
// run; more trials smooth the picture without changing its shape). Both
// sides run as cell 0, so opt.Trace is called twice for each trial,
// side A first.
func RunWorkloadFigure(fig WorkloadFigure, opt Options) (*FigureResult, error) {
	opt = opt.withDefaults(3)
	res := &FigureResult{
		Figure: fig,
		HistA:  newWorkloadHistogram(),
		HistB:  newWorkloadHistogram(),
	}
	run := func(c Cell, h *stats.Histogram, idle, max, alive *int) error {
		c.Config.SnapshotTicks = []int{fig.Tick}
		c.Config.MaxTicks = fig.Tick + 1 // only the snapshot matters
		// Matched seeds: both sides of a figure start from the same
		// network (the paper: "identical starting configurations").
		return runTrials(c, 0, opt, func(_ int, r *sim.Result) error {
			if len(r.Snapshots) != 1 {
				return fmt.Errorf("experiments: figure %d expected 1 snapshot, got %d (run ended at tick %d)",
					fig.Number, len(r.Snapshots), r.Ticks)
			}
			snap := r.Snapshots[0]
			*alive += snap.AliveHosts
			for _, w := range snap.HostWorkloads {
				h.AddInt(w)
				if w == 0 {
					*idle++
				}
				if w > *max {
					*max = w
				}
			}
			return nil
		})
	}
	if err := run(fig.CellA, res.HistA, &res.IdleA, &res.MaxA, &res.AliveA); err != nil {
		return nil, err
	}
	if err := run(fig.CellB, res.HistB, &res.IdleB, &res.MaxB, &res.AliveB); err != nil {
		return nil, err
	}
	return res, nil
}

// Summary renders the headline comparison the paper's captions make:
// idle-node counts and maximum workloads on each side.
func (fr *FigureResult) Summary() string {
	return fmt.Sprintf(
		"Figure %d (tick %d): %s — idle %d, max %d | %s — idle %d, max %d",
		fr.Figure.Number, fr.Figure.Tick,
		fr.Figure.LabelA, fr.IdleA, fr.MaxA,
		fr.Figure.LabelB, fr.IdleB, fr.MaxB)
}
