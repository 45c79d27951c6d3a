package experiments

// The chaos experiment quantifies the paper's §V claim that "active,
// aggressive" replication makes failures cheap: the same strategy and
// job are run under deterministic crash-stop fault plans of increasing
// harshness, with replication on and off, and the runtime factor is
// reported alongside the keys lost and the modeled repair latency. See
// docs/FAULTS.md for the fault model.

import (
	"fmt"

	"chordbalance/internal/faults"
	"chordbalance/internal/report"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
)

// ChaosCell is one row of the chaos experiment: a named fault plan and
// replication degree, with the aggregated outcome over trials.
type ChaosCell struct {
	Name     string
	Plan     faults.Plan
	Replicas int

	Factor   TrialStat
	KeysLost TrialStat
	MTTR     TrialStat
	// Completed counts trials that finished before the tick cap.
	Completed int
	Trials    int
}

// chaosCells is the experiment grid: steady crash churn, correlated
// bursts, and a partition-then-heal episode, each with replication on
// (default degree) and off.
func chaosCells() []ChaosCell {
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"steady crashes 0.2%", faults.Plan{CrashRate: 0.002}},
		{"crash bursts 3/25t", faults.Plan{BurstEvery: 25, BurstSize: 3}},
		{"partition 30% t10-60 + crashes", faults.Plan{
			CrashRate: 0.001, PartitionFrac: 0.3, PartitionStart: 10, PartitionHeal: 60}},
	}
	var out []ChaosCell
	for _, p := range plans {
		for _, replicas := range []int{0, -1} {
			mode := "replicated"
			if replicas < 0 {
				mode = "no replication"
			}
			out = append(out, ChaosCell{
				Name:     fmt.Sprintf("%s, %s", p.name, mode),
				Plan:     p.plan,
				Replicas: replicas,
			})
		}
	}
	return out
}

// Chaos runs the fault-plan grid: random injection on 200 hosts with 20k
// tasks under each plan, each trial's faults drawn from a stream apart
// from its seed. It aggregates runtime factor, keys lost, and mean
// time-to-repair per cell.
func Chaos(opt Options) ([]ChaosCell, error) {
	opt = opt.withDefaults(5)
	cells := chaosCells()
	for ci := range cells {
		c := &cells[ci]
		cell := Cell{
			Strategy: "random",
			Config:   sim.Config{Nodes: 200, Tasks: 20000, Replicas: c.Replicas, Faults: c.Plan},
			perTrial: func(cfg *sim.Config) { cfg.Faults.Seed = cfg.Seed ^ 0xc4ce5adcf623d983 },
		}
		var f, l, m stats.Online
		err := runTrials(cell, ci, opt, func(_ int, res *sim.Result) error {
			f.Add(res.RuntimeFactor)
			l.Add(float64(res.Faults.KeysLost))
			m.Add(res.Faults.MeanTimeToRepair())
			if res.Completed {
				c.Completed++
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		c.Trials = opt.Trials
		c.Factor = onlineStat(f)
		c.KeysLost = onlineStat(l)
		c.MTTR = onlineStat(m)
	}
	return cells, nil
}

// ChaosReport renders the chaos cells as a table.
func ChaosReport(cells []ChaosCell) *report.Table {
	t := report.NewTable("Chaos: runtime under deterministic fault plans",
		"fault plan", "factor", "±95%", "keys lost", "mttr (ticks)", "completed")
	for _, c := range cells {
		t.AddRow(c.Name,
			fmt.Sprintf("%.3f", c.Factor.Mean),
			fmt.Sprintf("%.3f", c.Factor.CI95),
			fmt.Sprintf("%.1f", c.KeysLost.Mean),
			fmt.Sprintf("%.2f", c.MTTR.Mean),
			fmt.Sprintf("%d/%d", c.Completed, c.Trials))
	}
	return t
}
