package experiments

import (
	"fmt"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/netchord"
	"chordbalance/internal/report"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
	"chordbalance/internal/xrand"
)

// ExtensionsSummary measures the §VII future-work strategies implemented
// in internal/strategy/extensions.go against their baselines:
// strength-aware invitation and random injection on the heterogeneous
// networks where the paper saw its negative result, and chosen-ID
// targeted injection on the homogeneous reference network.
func ExtensionsSummary(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	hetero := sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true, WorkByStrength: true}
	cells := []SummaryCell{
		{
			Name: "invitation hetero (baseline)",
			Note: "the §VII problem: balanced but slow",
			Cell: Cell{Strategy: "invitation", Config: hetero},
		},
		{
			Name: "strength-invitation hetero (§VII)",
			Note: "strongest qualifying predecessor helps",
			Cell: Cell{Strategy: "strength-invitation", Config: hetero},
		},
		{
			Name: "random hetero (baseline)",
			Cell: Cell{Strategy: "random", Config: hetero},
		},
		{
			Name: "strength-random hetero (§VII)",
			Note: "weak hosts act with probability strength/max",
			Cell: Cell{Strategy: "strength-random", Config: hetero},
		},
		{
			Name: "smart-neighbor homogeneous (baseline)",
			Cell: Cell{Strategy: "smart-neighbor", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "targeted homogeneous (§VII chosen IDs)",
			Note: "Sybil lands on the exact median remaining key",
			Cell: Cell{Strategy: "targeted", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "random homogeneous (paper's best)",
			Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
		{
			Name: "oracle homogeneous (global upper bound)",
			Note: "omniscient rebalancer; not decentralized",
			Cell: Cell{Strategy: "oracle", Config: sim.Config{Nodes: 1000, Tasks: 100000}},
		},
	}
	return runSummary(cells, opt)
}

// ChurnCurve reproduces the paper's footnote 2: a wider sweep of churn
// rates on the 1000-node/100k-task network, showing the diminishing
// returns past 0.01 — and, unlike the paper's simulation, putting a
// number on the maintenance cost that makes high churn "prohibitively
// expensive" (the estimated per-tick message load from joins/leaves).
func ChurnCurve(opt Options) (*report.Table, error) {
	opt = opt.withDefaults(5)
	rates := []float64{0, 0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1}
	t := report.NewTable(
		"Churn-rate curve, 1000 nodes / 100k tasks (paper footnote 2)",
		"churn rate", "factor", "±95%", "turnover msgs/tick")
	for ci, rate := range rates {
		c := Cell{Config: sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: rate}}
		st, err := FactorStat(c, ci, opt)
		if err != nil {
			return nil, err
		}
		// One extra instrumented run for the message estimate.
		cfg, err := c.trialConfig(opt, ci, 1000)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		perTick := float64(res.Messages.LookupMessages) / float64(res.Ticks)
		t.AddRowf(fmt.Sprintf("%g", rate), st.Mean, st.CI95, perTick)
	}
	return t, nil
}

// StrengthShare measures the §VII hypothesis directly: in a heterogeneous
// strength-consuming network, what fraction of the job does each strength
// class complete, against its fair share of total capacity? Classes doing
// *more* than their capacity share are net work-stealers; the paper
// suspects the weak classes are, which is exactly what slows the job.
func StrengthShare(opt Options) (*report.Table, error) {
	opt = opt.withDefaults(5)
	t := report.NewTable(
		"Work share by strength class: hetero 1000n/100k, strength consumption",
		"strategy", "class", "hosts", "capacity share", "work share", "stealing?")
	for ci, strat := range []string{"random", "invitation", "strength-invitation"} {
		hostsBy := map[int]int{}
		doneBy := map[int]int{}
		c := Cell{Strategy: strat, Config: sim.Config{Nodes: 1000, Tasks: 100000, Heterogeneous: true, WorkByStrength: true}}
		err := runTrials(c, ci, opt, func(i int, res *sim.Result) error {
			if !res.Completed {
				return fmt.Errorf("strengthshare: %s trial %d incomplete", strat, i)
			}
			for class, n := range res.CompletedByStrength {
				doneBy[class] += n
			}
			for class, n := range res.HostsByStrength {
				hostsBy[class] += n
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		totalDone, totalCap := 0, 0
		for class, n := range hostsBy {
			totalCap += n * class
		}
		for _, n := range doneBy {
			totalDone += n
		}
		for class := 1; class <= 5; class++ {
			capShare := float64(hostsBy[class]*class) / float64(totalCap)
			workShare := float64(doneBy[class]) / float64(totalDone)
			verdict := ""
			if workShare > capShare*1.05 {
				verdict = "yes (net stealer)"
			} else if workShare < capShare*0.95 {
				verdict = "no (cedes work)"
			}
			t.AddRowf(strat, class, hostsBy[class], capShare, workShare, verdict)
		}
	}
	return t, nil
}

// AblationChurnModel compares the paper's constant-churn assumption with
// bursty churn of the same average rate (correlated joins/leaves, flash
// crowds) on the Table II reference network.
func AblationChurnModel(opt Options) ([]SummaryCell, error) {
	opt = opt.withDefaults(5)
	var cells []SummaryCell
	for _, m := range []struct {
		name  string
		model sim.ChurnModel
	}{{"constant", sim.ChurnConstant}, {"bursty p=50 duty=0.2", sim.ChurnBursty}} {
		for _, rate := range []float64{0.001, 0.01} {
			cells = append(cells, SummaryCell{
				Name: fmt.Sprintf("churn %g, %s", rate, m.name),
				Note: "same average turnover, different arrival pattern",
				Cell: Cell{Config: sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: rate, ChurnModel: m.model}},
			})
		}
	}
	return runSummary(cells, opt)
}

// WorkSeries captures the paper's §V-C "average work per tick" output:
// tasks completed per tick over the first `ticks` ticks for each named
// strategy on the reference network, averaged over trials.
func WorkSeries(ticks int, opt Options) (*report.Table, error) {
	opt = opt.withDefaults(3)
	if ticks <= 0 {
		ticks = 50
	}
	base := sim.Config{Nodes: 1000, Tasks: 100000, RecordWorkPerTick: true, MaxTicks: ticks}
	churn := base
	churn.ChurnRate = 0.01
	strategies := []struct {
		label string
		cell  Cell
	}{
		{"none", Cell{Config: base}},
		{"churn-0.01", Cell{Config: churn}},
		{"random", Cell{Strategy: "random", Config: base}},
		{"smart-neighbor", Cell{Strategy: "smart-neighbor", Config: base}},
		{"invitation", Cell{Strategy: "invitation", Config: base}},
	}
	series := make([][]float64, len(strategies))
	for si, s := range strategies {
		sums := make([]float64, ticks)
		err := runTrials(s.cell, si, opt, func(_ int, res *sim.Result) error {
			for i, w := range res.WorkPerTick {
				if i < ticks {
					sums[i] += float64(w)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("work series %s: %w", s.label, err)
		}
		for i := range sums {
			sums[i] /= float64(opt.Trials)
		}
		series[si] = sums
	}
	headers := []string{"tick"}
	for _, s := range strategies {
		headers = append(headers, s.label)
	}
	t := report.NewTable(
		fmt.Sprintf("Average work per tick, first %d ticks (1000 nodes / 100k tasks)", ticks),
		headers...)
	for i := 0; i < ticks; i++ {
		row := []any{i + 1}
		for _, s := range series {
			row = append(row, s[i])
		}
		t.AddRowf(row...)
	}
	return t, nil
}

// ChordHops validates the O(log n) lookup-cost model the tick simulator
// charges for joins and Sybil placements, by building rings of the
// shipped protocol (netchord, driven in lockstep) and measuring routed
// hop counts. Messages per join counts every RPC of the build
// (NewLockstep), the rounds that settle the finished ring included.
func ChordHops(opt Options) (*report.Table, error) {
	opt = opt.withDefaults(200) // trials = lookups per ring here
	t := report.NewTable("Chord lookup hops vs network size (fingers fixed)",
		"nodes", "mean hops", "max hops", "log2(n)", "messages/join")
	for ci, n := range []int{16, 32, 64, 128} {
		l, err := netchord.NewLockstep(netchord.Config{}, faults.Plan{}, n, keys.NewGenerator(trialSeed(opt.Seed, ci, 0)).Next)
		if err != nil {
			return nil, fmt.Errorf("chordhops: %w", err)
		}
		joinMsgs := l.RPC().Calls
		l.FixFingers()
		entry := l.Nodes()[0]
		rng := xrand.New(trialSeed(opt.Seed, ci, 1))
		var hops stats.Online
		maxHops := 0
		for i := 0; i < opt.Trials; i++ {
			_, h, err := entry.Lookup(ids.Random(rng))
			if err != nil {
				l.Close()
				return nil, err
			}
			hops.Add(float64(h))
			if h > maxHops {
				maxHops = h
			}
		}
		l.Close()
		t.AddRowf(n, hops.Mean(), maxHops, log2f(n), float64(joinMsgs)/float64(n))
	}
	return t, nil
}

// Traffic compares the strategies on the axis §VI-C/D argue about:
// protocol overhead. For each strategy it reports the runtime factor
// next to the estimated message counts (Sybil-placement lookups,
// workload queries, invitations) and the overhead per completed task —
// making the paper's qualitative claims ("estimation requires fewer
// messages", "invitation... uses less bandwidth", "reactive, rather
// than proactive") quantitative.
func Traffic(opt Options) (*report.Table, error) {
	opt = opt.withDefaults(5)
	t := report.NewTable(
		"Strategy traffic on 1000n/100k (maintenance excluded; per-trial means)",
		"strategy", "factor", "sybils", "lookup msgs", "query msgs", "msgs/task")
	strategies := []string{"none", "churn", "random", "neighbor", "smart-neighbor", "invitation", "targeted"}
	for ci, name := range strategies {
		c := Cell{Strategy: name, Config: sim.Config{Nodes: 1000, Tasks: 100000}}
		if name == "churn" {
			c.Config.ChurnRate = 0.01
		}
		var factor, sybils, lookups, queries stats.Online
		err := runTrials(c, ci, opt, func(i int, res *sim.Result) error {
			if !res.Completed {
				return fmt.Errorf("traffic: %s trial %d incomplete", name, i)
			}
			factor.Add(res.RuntimeFactor)
			sybils.Add(float64(res.Messages.SybilsCreated))
			lookups.Add(float64(res.Messages.LookupMessages))
			q := 0
			for _, n := range res.Messages.Strategy {
				q += n
			}
			queries.Add(float64(q))
			return nil
		})
		if err != nil {
			return nil, err
		}
		perTask := (lookups.Mean() + queries.Mean()) / float64(c.Config.Tasks)
		t.AddRowf(name, factor.Mean(), sybils.Mean(), lookups.Mean(),
			queries.Mean(), perTask)
	}
	return t, nil
}

// Resilience quantifies the paper's active-backup assumption (§V) on
// the shipped protocol: how many acknowledged keys survive f *adjacent*
// node failures when each key has r copies beyond its owner's. Adjacent
// failures are the worst case — they wipe a contiguous run of the ring,
// which is exactly where one key's replicas live. The paper asserts
// recovery from "quite catastrophic failures"; this table shows where
// that holds (f <= r) and where it cannot (f > r).
func Resilience(opt Options) (*report.Table, error) {
	opt = opt.withDefaults(3)
	t := report.NewTable(
		"Replication resilience: 24-node ring, 120 keys, adjacent failures",
		"replicas", "failures", "keys lost", "loss rate")
	cell := 0
	for _, replicas := range []int{1, 2, 3, 4} {
		for _, failures := range []int{1, 2, 3, 4, 5} {
			lost, total := 0, 0
			for trial := 0; trial < opt.Trials; trial++ {
				l, n, err := resilienceTrial(replicas, failures,
					trialSeed(opt.Seed, cell, trial))
				if err != nil {
					return nil, err
				}
				lost += l
				total += n
			}
			t.AddRowf(replicas, failures, lost, float64(lost)/float64(total))
			cell++
		}
	}
	return t, nil
}

// resilienceTrial stores 120 keys on a converged 24-node ring holding
// replicas+1 copies of each (netchord counts the owner's copy in
// Config.Replicas), crashes failures adjacent nodes away from the entry
// node, lets the ring heal, and reads every key back through the entry.
func resilienceTrial(replicas, failures int, seed uint64) (lost, total int, err error) {
	const nodes, count = 24, 120
	l, err := netchord.NewLockstep(netchord.Config{Replicas: replicas + 1}, faults.Plan{}, nodes, keys.NewGenerator(seed).Next)
	if err != nil {
		return 0, 0, fmt.Errorf("resilience: %w", err)
	}
	defer l.Close()
	g := keys.NewGenerator(seed ^ 0x6b657973) // "keys": a stream apart from the node IDs
	stored := make([]ids.ID, count)
	c := l.Client()
	for i := range stored {
		stored[i] = g.Next()
		if err := c.Put(stored[i], []byte(fmt.Sprintf("v%d", i))); err != nil {
			return 0, 0, fmt.Errorf("resilience: put: %w", err)
		}
	}
	// Crash `failures` ADJACENT nodes, starting away from the entry
	// node (the first in ring order, where the client enters): each
	// kill moves the next victim into the same live position.
	for i := 0; i < failures; i++ {
		if err := l.Kill(l.Nodes()[1+failures].ID()); err != nil {
			return 0, 0, err
		}
	}
	l.Converge(400)
	c = l.Client()
	for i, k := range stored {
		got, err := c.Get(k)
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			lost++
		}
	}
	return lost, count, nil
}

// ArcTable reports the §III arc-length analysis: SHA-1 placement versus
// even placement, against the exponential model's predictions.
func ArcTable(opt Options) (*report.Table, error) {
	opt = opt.withDefaults(5)
	t := report.NewTable("Arc-length analysis (median/mean -> ln 2 = 0.693 under SHA-1)",
		"placement", "nodes", "median/mean", "max/mean", "predicted max/mean", "KS vs exponential")
	for ci, n := range []int{100, 1000, 10000} {
		var med, max, ks stats.Online
		for i := 0; i < opt.Trials; i++ {
			g := keys.NewGenerator(trialSeed(opt.Seed, ci, i))
			a := keys.AnalyzeArcs(g.NodeIDs(n))
			med.Add(a.MedianToMean)
			max.Add(a.MaxToMean)
			ks.Add(a.KSStatistic)
		}
		t.AddRowf("sha1", n, med.Mean(), max.Mean(), keys.ExpectedMaxToMean(n), ks.Mean())
	}
	even := keys.AnalyzeArcs(keys.EvenIDs(1000, ids.Zero))
	t.AddRowf("even", 1000, even.MedianToMean, even.MaxToMean, 1.0, even.KSStatistic)
	return t, nil
}

func log2f(n int) float64 {
	f := 0.0
	for v := 1; v < n; v *= 2 {
		f++
	}
	return f
}
