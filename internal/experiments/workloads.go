package experiments

import (
	"fmt"

	"chordbalance/internal/sim"
)

// AblationWorkloadSkew replaces the paper's uniform task keys with
// Zipf-popular object references (the workload BitTorrent/IPFS-style
// deployments actually see, §I) and measures how each strategy copes.
// Tasks for one object share a ring position, so no strategy can split a
// single hot object across nodes — skew sets a floor on the achievable
// factor.
func AblationWorkloadSkew(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, wl := range []struct {
		name    string
		objects int
		s       float64
	}{
		{"uniform", 0, 0},
		{"zipf s=0.8, 10k objects", 10000, 0.8},
		{"zipf s=1.1, 10k objects", 10000, 1.1},
	} {
		for _, strat := range []string{"", "random"} {
			cells = append(cells, SummaryCell{
				Name: fmt.Sprintf("%s, %s", strategyLabel(strat), wl.name),
				Note: "hot objects cannot be split across nodes",
				Cell: Cell{Strategy: strat, Config: sim.Config{Nodes: 1000, Tasks: 100000, ZipfObjects: wl.objects, ZipfExponent: wl.s}},
			})
		}
	}
	return runSummary(cells, opt)
}

// strategyLabel names strat in a table: "" runs no strategy.
func strategyLabel(strat string) string {
	if strat == "" {
		return "none"
	}
	return strat
}

// VirtualServers compares the literature's classic static remedy — every
// host running k permanent virtual servers (Chord's own suggestion) —
// against the paper's dynamic Sybil strategies on the reference network.
// Static virtual servers smooth the arc distribution up front but cannot
// react to where the work actually is, and they multiply every host's
// maintenance load for the entire lifetime of the network.
func VirtualServers(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, k := range []int{0, 2, 5, 10} {
		cells = append(cells, SummaryCell{
			Name: fmt.Sprintf("static virtual servers k=%d", k),
			Note: fmt.Sprintf("%d permanent vnodes/host, no dynamics", k+1),
			Cell: Cell{Config: sim.Config{Nodes: 1000, Tasks: 100000, StaticVNodes: k}},
		})
	}
	cells = append(cells, SummaryCell{
		Name: "dynamic random injection (paper)",
		Note: "at most 5 Sybils/host, only while needed",
		Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
	})
	return runSummary(cells, opt)
}

// AblationStreaming compares the paper's static job (all tasks present
// at tick 0) with tasks arriving over time at the ideal consumption
// rate, for the baseline and random injection. Streaming smooths the
// imbalance by itself — each arrival wave lands on whatever arcs exist
// then — so strategies gain less, and the measurement shows how much of
// the paper's speedup depends on the static-job assumption.
func AblationStreaming(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, mode := range []struct {
		name         string
		stream, rate int
		tasks        int
	}{
		{"static job", 0, 0, 100000},
		{"streaming 1000/tick", 90000, 1000, 10000},
	} {
		for _, strat := range []string{"", "random"} {
			cells = append(cells, SummaryCell{
				Name: fmt.Sprintf("%s, %s", strategyLabel(strat), mode.name),
				Note: "100k total tasks either way",
				Cell: Cell{Strategy: strat, Config: sim.Config{Nodes: 1000, Tasks: mode.tasks, StreamTasks: mode.stream, StreamRate: mode.rate}},
			})
		}
	}
	return runSummary(cells, opt)
}
