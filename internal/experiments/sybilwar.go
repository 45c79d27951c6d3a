package experiments

// The sybilwar experiment measures the paper's open question from the
// hostile side: the same Sybil mechanism the balancing strategies use
// cooperatively, pointed at one arc of the keyspace as an eclipse
// attack, against the two defenses internal/adversary supplies (puzzle
// admission and density detection). The sweep crosses puzzle cost ×
// adversary budget × detection threshold and reports eclipse success,
// runtime factor, the Gini trajectory, and the honest false-eviction
// rate — i.e. how much each defense dose degrades Sybil-based
// *balancing* before it defeats Sybil-based *attacking*. See
// docs/ADVERSARY.md for the threat model and a worked session.

import (
	"fmt"

	"chordbalance/internal/adversary"
	"chordbalance/internal/report"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
)

// SybilwarCell is one sweep cell: a (budget, puzzle, threshold) triple
// with the aggregated outcome over trials.
type SybilwarCell struct {
	Name       string
	Budget     int
	PuzzleBits int
	Threshold  float64

	// EclipseProbe is the eclipsed fraction at the fixed probe tick
	// (eclipseProbeTick), the headline attack-success metric: comparing
	// at a common tick avoids conflating defense effect with run length
	// (final eclipse erodes on long runs because the honest balancer
	// floods the hot arc with its own Sybils).
	EclipseProbe TrialStat
	// Eclipse is the final eclipsed fraction of the target arc.
	Eclipse TrialStat
	// Factor is the runtime factor; attacked runs that never finish hit
	// the tick cap, so the factor doubles as the stall signal.
	Factor TrialStat
	// FalseEvict is the defense's false-eviction rate (honest identities
	// evicted / all evictions).
	FalseEvict TrialStat
	// GiniStart and GiniEnd bracket the host-workload Gini trajectory
	// (first and last snapshot).
	GiniStart TrialStat
	GiniEnd   TrialStat
	// Completed counts trials that finished before the tick cap; an
	// un-evicted eclipse blackholes keys, so stalls are expected.
	Completed int
	Trials    int
}

// eclipseProbeTick is the common sample point for the headline eclipse
// metric. It is scan-aligned (a multiple of the default ScanEvery), so
// defended cells are probed right after an eviction pass, and it sits
// well before any cell's completion time.
const eclipseProbeTick = 100

// sybilwarCells is the sweep grid: adversary budget off/on crossed with
// escalating defense doses. The dose ladder is chosen to expose the
// whole trade-off curve: detection alone (eviction is free to undo —
// the attacker re-mints instantly, and clearing honest diluters out of
// the arc can even help it), a moderate puzzle (cost 16 per identity:
// throttles minting without halting the balancer's Sybil churn), the
// combination, and the attack-defeating dose (cost 256 outruns the
// attacker's work rate between scans — and buries honest strength-1
// joiners, the headline collateral).
func sybilwarCells() []SybilwarCell {
	doses := []struct {
		bits int
		thr  float64
	}{
		{0, 0}, // undefended
		{0, 4}, // detection only
		{4, 0}, // puzzle only
		{4, 4}, // moderate combined
		{8, 4}, // attack-defeating combined
	}
	var out []SybilwarCell
	for _, budget := range []int{0, 24} {
		for _, d := range doses {
			name := fmt.Sprintf("budget=%d puzzle=%d", budget, d.bits)
			if d.thr > 0 {
				name += fmt.Sprintf(" thr=%g", d.thr)
			} else {
				name += " thr=off"
			}
			out = append(out, SybilwarCell{
				Name: name, Budget: budget, PuzzleBits: d.bits, Threshold: d.thr,
			})
		}
	}
	return out
}

// cell is the cell's simulation: the paper's headline random strategy
// balancing under churn, with the cell's attack and defense doses
// applied. MaxTicks is explicit because an un-defended eclipse never
// lets the job finish; the snapshot ladder feeds the Gini and eclipse
// trajectories.
func (c *SybilwarCell) cell() Cell {
	cfg := sim.Config{
		Nodes:         150,
		Tasks:         12000,
		ChurnRate:     0.01,
		MaxTicks:      2000,
		SnapshotTicks: []int{0, 100, 400, 1200, 2000},
		Defense:       adversary.DefenseConfig{PuzzleBits: c.PuzzleBits, Threshold: c.Threshold},
	}
	if c.Budget > 0 {
		cfg.Attack = adversary.AttackConfig{
			Budget:      c.Budget,
			MintEvery:   2,
			TargetStart: 0.2,
			TargetWidth: 1.0 / 16,
			WorkRate:    16,
		}
	}
	return Cell{Strategy: "random", Config: cfg}
}

// Sybilwar runs the attack/defense grid. Unlike FactorStat it does not
// require completion: a stalled run *is* the attack succeeding, and the
// tick-capped factor reports its cost.
func Sybilwar(opt Options) ([]SybilwarCell, error) {
	opt = opt.withDefaults(5)
	cells := sybilwarCells()
	for ci := range cells {
		c := &cells[ci]
		var p, e, f, fe, g0, g1 stats.Online
		err := runTrials(c.cell(), ci, opt, func(_ int, res *sim.Result) error {
			p.Add(eclipseAtOrBefore(res.Adversary.EclipseSamples, eclipseProbeTick))
			e.Add(res.Adversary.FinalEclipse)
			f.Add(res.RuntimeFactor)
			fe.Add(res.Adversary.FalseEvictionRate())
			var gini0, giniEnd float64
			if n := len(res.Snapshots); n > 0 {
				gini0 = stats.GiniInts(res.Snapshots[0].HostWorkloads)
				giniEnd = stats.GiniInts(res.Snapshots[n-1].HostWorkloads)
			}
			g0.Add(gini0)
			g1.Add(giniEnd)
			if res.Completed {
				c.Completed++
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		c.Trials = opt.Trials
		c.EclipseProbe = onlineStat(p)
		c.Eclipse = onlineStat(e)
		c.Factor = onlineStat(f)
		c.FalseEvict = onlineStat(fe)
		c.GiniStart = onlineStat(g0)
		c.GiniEnd = onlineStat(g1)
	}
	return cells, nil
}

// eclipseAtOrBefore returns the latest trajectory sample no later than
// tick (0 when the run has no samples by then — e.g. no attacker).
func eclipseAtOrBefore(samples []sim.EclipseSample, tick int) float64 {
	f := 0.0
	for _, s := range samples {
		if s.Tick > tick {
			break
		}
		f = s.Fraction
	}
	return f
}

// SybilwarReport renders the sweep as a table.
func SybilwarReport(cells []SybilwarCell) *report.Table {
	t := report.NewTable("Sybilwar: eclipse attack vs puzzle + density defenses",
		fmt.Sprintf("cell (probe t=%d)", eclipseProbeTick),
		"eclipse@probe", "eclipse@end", "factor", "±95%", "gini 0→end", "false evict", "completed")
	for _, c := range cells {
		t.AddRow(c.Name,
			fmt.Sprintf("%.3f", c.EclipseProbe.Mean),
			fmt.Sprintf("%.3f", c.Eclipse.Mean),
			fmt.Sprintf("%.3f", c.Factor.Mean),
			fmt.Sprintf("%.3f", c.Factor.CI95),
			fmt.Sprintf("%.3f→%.3f", c.GiniStart.Mean, c.GiniEnd.Mean),
			fmt.Sprintf("%.3f", c.FalseEvict.Mean),
			fmt.Sprintf("%d/%d", c.Completed, c.Trials))
	}
	return t
}
