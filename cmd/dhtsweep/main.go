// Command dhtsweep reproduces the paper's tables and §VI text results by
// sweeping configurations over many seeded trials.
//
//	dhtsweep -exp table2 -trials 100      # the full Table II grid
//	dhtsweep -exp all -trials 10          # everything, reduced trials
//
// Each table prints measured values next to the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chordbalance/internal/experiments"
	"chordbalance/internal/obs"
	"chordbalance/internal/prof"
	"chordbalance/internal/report"
)

type runner func(experiments.Options) error

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dhtsweep:", err)
		os.Exit(1)
	}
}

// run executes the sweep. Results go to out; the per-experiment
// wall-clock lines go to log, so out is a pure function of the flags and
// can be diffed against the committed sweep_results.txt.
func run(args []string, out, log io.Writer) error {
	fs := flag.NewFlagSet("dhtsweep", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "baseline", "experiment to run (or 'all'); see -list")
		trials  = fs.Int("trials", 0, "trials per cell (0 = per-experiment default)")
		seed    = fs.Uint64("seed", 1, "base seed")
		workers = fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		list    = fs.Bool("list", false, "list experiments and exit")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		md      = fs.Bool("md", false, "emit Markdown tables (for EXPERIMENTS.md)")

		// Per-trial JSONL traces (docs/OBSERVABILITY.md), one per
		// simulator trial.
		traceDir = fs.String("trace", "", "write per-trial JSONL traces into this directory (<exp>-c<cell>-t<trial>.jsonl)")

		// Perf-evidence profiles (docs/PERFORMANCE.md, EXPERIMENTS.md).
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	table := func(t *report.Table) error {
		switch {
		case *csv:
			return t.WriteCSV(out)
		case *md:
			return t.WriteMarkdown(out)
		}
		return t.Render(out)
	}
	summary := func(title string) func([]experiments.SummaryCell, error) error {
		return func(cells []experiments.SummaryCell, err error) error {
			if err != nil {
				return err
			}
			return table(experiments.SummaryReport(title, cells))
		}
	}

	all := []struct {
		name string
		what string
		run  runner
	}{
		{"table1", "Table I: task distribution medians", func(o experiments.Options) error {
			cells, err := experiments.Table1(o)
			if err != nil {
				return err
			}
			return table(experiments.Table1Report(cells))
		}},
		{"table2", "Table II: churn-strategy runtime factors", func(o experiments.Options) error {
			cells, err := experiments.Table2(o)
			if err != nil {
				return err
			}
			return table(experiments.Table2Report(cells))
		}},
		{"baseline", "§VI no-strategy reference factors", func(o experiments.Options) error {
			return summary("Baseline (no strategy)")(experiments.BaselineSummary(o))
		}},
		{"random", "§VI-B random injection results", func(o experiments.Options) error {
			return summary("Random injection (§VI-B)")(experiments.RandomSummary(o))
		}},
		{"neighbor", "§VI-C neighbor injection results", func(o experiments.Options) error {
			return summary("Neighbor injection (§VI-C)")(experiments.NeighborSummary(o))
		}},
		{"invitation", "§VI-D invitation results", func(o experiments.Options) error {
			return summary("Invitation (§VI-D)")(experiments.InvitationSummary(o))
		}},
		{"ablation-threshold", "§VI-B-1 sybilThreshold ablation", func(o experiments.Options) error {
			return summary("Ablation: sybilThreshold")(experiments.AblationSybilThreshold(o))
		}},
		{"ablation-maxsybils", "§VI-B-1 maxSybils ablation", func(o experiments.Options) error {
			return summary("Ablation: maxSybils (heterogeneous)")(experiments.AblationMaxSybils(o))
		}},
		{"ablation-churn", "§VI-B-1 churn-on-random ablation", func(o experiments.Options) error {
			return summary("Ablation: churn on random injection")(experiments.AblationChurnOnRandom(o))
		}},
		{"ablation-consume", "consumption-order design choice", func(o experiments.Options) error {
			return summary("Ablation: consumption order")(experiments.AblationConsumeMode(o))
		}},
		{"ablation-cadence", "decision cadence design choice", func(o experiments.Options) error {
			return summary("Ablation: decision cadence")(experiments.AblationDecisionCadence(o))
		}},
		{"ablation-avoid", "§IV-C avoid-repeats refinement", func(o experiments.Options) error {
			return summary("Ablation: neighbor avoid-repeats")(experiments.AblationAvoidRepeats(o))
		}},
		{"ablation-churn-model", "bursty vs constant churn", func(o experiments.Options) error {
			return summary("Ablation: churn arrival model")(experiments.AblationChurnModel(o))
		}},
		{"extensions", "§VII future-work strategies", func(o experiments.Options) error {
			return summary("§VII extensions: strength-aware and chosen-ID strategies")(experiments.ExtensionsSummary(o))
		}},
		{"strength-share", "who does the work in heterogeneous networks (§VII hypothesis)", func(o experiments.Options) error {
			t, err := experiments.StrengthShare(o)
			if err != nil {
				return err
			}
			return table(t)
		}},
		{"virtual-servers", "static virtual-server baseline vs dynamic Sybils", func(o experiments.Options) error {
			return summary("Static virtual servers vs dynamic Sybil injection")(experiments.VirtualServers(o))
		}},
		{"churn-curve", "footnote-2 churn-rate sweep with message costs", func(o experiments.Options) error {
			t, err := experiments.ChurnCurve(o)
			if err != nil {
				return err
			}
			return table(t)
		}},
		{"ablation-skew", "Zipf-popular workloads vs uniform keys", func(o experiments.Options) error {
			return summary("Ablation: workload skew")(experiments.AblationWorkloadSkew(o))
		}},
		{"ablation-streaming", "task arrivals during the run vs static job", func(o experiments.Options) error {
			return summary("Ablation: streaming arrivals")(experiments.AblationStreaming(o))
		}},
		{"work-series", "§V-C average work per tick (first 50 ticks)", func(o experiments.Options) error {
			t, err := experiments.WorkSeries(50, o)
			if err != nil {
				return err
			}
			return table(t)
		}},
		{"chord-hops", "O(log n) lookup validation on the real protocol", func(o experiments.Options) error {
			t, err := experiments.ChordHops(o)
			if err != nil {
				return err
			}
			return table(t)
		}},
		{"traffic", "per-strategy message overhead (§VI bandwidth claims)", func(o experiments.Options) error {
			t, err := experiments.Traffic(o)
			if err != nil {
				return err
			}
			return table(t)
		}},
		{"resilience", "replication vs adjacent failures (active-backup assumption)", func(o experiments.Options) error {
			t, err := experiments.Resilience(o)
			if err != nil {
				return err
			}
			return table(t)
		}},
		{"chaos", "runtime under deterministic fault plans (crashes, bursts, partitions)", func(o experiments.Options) error {
			cells, err := experiments.Chaos(o)
			if err != nil {
				return err
			}
			return table(experiments.ChaosReport(cells))
		}},
		{"sybilwar", "eclipse attack vs puzzle + density defenses (hostile Sybils)", func(o experiments.Options) error {
			cells, err := experiments.Sybilwar(o)
			if err != nil {
				return err
			}
			return table(experiments.SybilwarReport(cells))
		}},
		{"arcs", "§III arc-length analysis vs the exponential model", func(o experiments.Options) error {
			t, err := experiments.ArcTable(o)
			if err != nil {
				return err
			}
			return table(t)
		}},
	}

	if *list {
		for _, e := range all {
			fmt.Fprintf(out, "%-20s %s\n", e.name, e.what)
		}
		return nil
	}

	opt := experiments.Options{Trials: *trials, Seed: *seed, Workers: *workers}
	// Per-trial trace hook: each trial opens its own file sink, so the
	// parallel sweep needs no locking around the tracers themselves; only
	// the first file-creation error is retained (and surfaced after the
	// experiment finishes — the failing trial just runs untraced).
	var traceErr error
	var traceMu sync.Mutex
	makeTrace := func(name string) func(cell, trial int) *obs.Tracer {
		if *traceDir == "" {
			return nil
		}
		return func(cell, trial int) *obs.Tracer {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-c%d-t%d.jsonl", name, cell, trial))
			sink, err := obs.NewFileSink(path)
			if err != nil {
				traceMu.Lock()
				if traceErr == nil {
					traceErr = err
				}
				traceMu.Unlock()
				return nil
			}
			return obs.New(sink)
		}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	runOne := func(name string) error {
		for _, e := range all {
			if e.name == name {
				// Wall-clock audit: this is the only time.Now/Since pair
				// in the sweep driver, and it measures operator-facing
				// progress ("how long did this experiment take to run")
				// exclusively. The measured duration never reaches a
				// seed, a Config, or any reported statistic, so it
				// cannot perturb reproducibility. The nowallclock lint
				// rule exempts cmd/ for exactly this use; see
				// docs/LINTING.md.
				start := time.Now()
				fmt.Fprintf(out, "== %s ==\n", e.what)
				o := opt
				o.Trace = makeTrace(name)
				if err := e.run(o); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				traceMu.Lock()
				terr := traceErr
				traceMu.Unlock()
				if terr != nil {
					return fmt.Errorf("%s: opening trace sink: %w", name, terr)
				}
				fmt.Fprintln(out)
				fmt.Fprintf(log, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
				return nil
			}
		}
		return fmt.Errorf("unknown experiment %q (use -list)", name)
	}
	if *exp == "all" {
		for _, e := range all {
			if err := runOne(e.name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}
