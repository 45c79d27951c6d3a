package experiments

import (
	"fmt"

	"chordbalance/internal/ring"
	"chordbalance/internal/sim"
)

// AblationSybilThreshold studies §VI-B-1: the sybilThreshold's effect on
// random injection in homogeneous networks (where the paper saw a >= 0.1
// factor reduction at the smaller task ratio and none at the larger).
func AblationSybilThreshold(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, net := range []struct{ n, t int }{{1000, 100000}, {1000, 1000000}} {
		for _, thr := range []int{0, 5, 20} {
			cells = append(cells, SummaryCell{
				Name: fmt.Sprintf("random %dn/%dk thr=%d", net.n, net.t/1000, thr),
				Note: "paper: threshold helps only at 100 tasks/node",
				Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: net.n, Tasks: net.t, SybilThreshold: thr}},
			})
		}
	}
	return runSummary(cells, opt)
}

// AblationMaxSybils studies §VI-B-1: larger maxSybils hurting
// heterogeneous networks (strength disparity grows with the cap).
func AblationMaxSybils(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, cap := range []int{5, 10} {
		cells = append(cells, SummaryCell{
			Name: fmt.Sprintf("random hetero 1000n/100k maxSybils=%d", cap),
			Note: "paper: 1..10 strengths perform worse than 1..5",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true, WorkByStrength: true, MaxSybils: cap}},
		})
		cells = append(cells, SummaryCell{
			Name: fmt.Sprintf("random hetero 1000n/1M maxSybils=%d", cap),
			Note: "paper: increase ~0.3-0.4 at 1000 tasks/node",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 1000000, Heterogeneous: true, WorkByStrength: true, MaxSybils: cap}},
		})
	}
	return runSummary(cells, opt)
}

// AblationChurnOnRandom studies §VI-B-1: churn adds nothing (and slightly
// hurts) once random injection is balancing the network.
func AblationChurnOnRandom(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, rate := range []float64{0, 0.001, 0.01} {
		cells = append(cells, SummaryCell{
			Name: fmt.Sprintf("random 1000n/100k churn=%g", rate),
			Note: "paper: churn adds ~+0.06 at 0.01, never helps",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: rate}},
		})
	}
	return runSummary(cells, opt)
}

// AblationConsumeMode measures the design choice DESIGN.md §3 documents:
// how the order nodes work through their arcs changes each strategy's
// effectiveness. Front consumption (remaining keys cluster at the arc's
// far edge) reproduces the paper's weak neighbor/invitation results;
// alternate consumption (keys stay spread) makes mid-arc splits far more
// effective.
func AblationConsumeMode(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, m := range []struct {
		name string
		mode ring.ConsumeMode
	}{{"front", ring.ConsumeFront}, {"alternate", ring.ConsumeAlternate}} {
		for _, strat := range []string{"random", "neighbor", "smart-neighbor", "invitation"} {
			cells = append(cells, SummaryCell{
				Name: fmt.Sprintf("%s, consume=%s", strat, m.name),
				Cell: Cell{Strategy: strat, Config: sim.Config{Nodes: 1000, Tasks: 100000, ConsumeMode: m.mode}},
			})
		}
	}
	return runSummary(cells, opt)
}

// AblationDecisionCadence varies how often the strategies run their
// decision pass (the paper fixes it at 5 ticks without justification).
func AblationDecisionCadence(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, every := range []int{1, 5, 10, 25} {
		cells = append(cells, SummaryCell{
			Name: fmt.Sprintf("random 1000n/100k decide-every=%d", every),
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000, DecisionEvery: every}},
		})
	}
	return runSummary(cells, opt)
}

// AblationAvoidRepeats measures §IV-C's suggested refinement of marking
// arcs that yielded no work as invalid for future Sybil injection.
func AblationAvoidRepeats(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, avoid := range []bool{false, true} {
		cells = append(cells, SummaryCell{
			Name: fmt.Sprintf("neighbor 1000n/100k avoid-repeats=%v", avoid),
			Note: "paper: suggested but not evaluated",
			Cell: Cell{Strategy: "neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000, AvoidRepeats: avoid}},
		})
	}
	return runSummary(cells, opt)
}
