// Command dhtbench measures the simulator's performance trajectory: it
// runs the paper's workloads at fixed seeds and reports ns/tick,
// allocs/tick, and total wall time as JSON (see docs/PERFORMANCE.md for
// the schema and workflow).
//
//	dhtbench -out BENCH_3.json -label pr3            # record a report
//	dhtbench -baseline old.json -out BENCH_3.json    # carry a baseline
//	dhtbench -gate BENCH_3.json -tolerance 0.15      # CI regression gate
//	dhtbench -workloads table2-churn-10k -trials 1   # one quick smoke
//
// The gate re-runs each committed workload at its recorded trial count
// and seed, so the committed tick totals double as a determinism check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"chordbalance/internal/bench"
	"chordbalance/internal/obs"
	"chordbalance/internal/prof"
	"chordbalance/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dhtbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhtbench", flag.ContinueOnError)
	var (
		trials    = fs.Int("trials", 3, "trials per workload")
		seed      = fs.Uint64("seed", 1, "base seed (trial i derives a distinct stream)")
		outFile   = fs.String("out", "", "write the JSON report to this file (default: stdout)")
		label     = fs.String("label", "", "free-form label stored in the report (e.g. pr3)")
		baseFile  = fs.String("baseline", "", "carry this report's current section as the new report's baseline")
		gateFile  = fs.String("gate", "", "regression-gate mode: compare fresh runs against this report")
		tolerance = fs.Float64("tolerance", 0.15, "allowed ns/tick regression fraction in -gate mode")
		filter    = fs.String("workloads", "", "comma-separated workload names (default: all)")
		list      = fs.Bool("list", false, "list workloads and exit")

		// Untimed trace capture (docs/OBSERVABILITY.md): one traced,
		// unmeasured run of trial 0 per workload, written before the timed
		// trials so tracing can never contaminate the numbers.
		traceDir = fs.String("trace", "", "write an untimed per-workload JSONL trace (trial 0) into this directory")

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

	workloads, err := bench.Filter(bench.Workloads(), *filter)
	if err != nil {
		return err
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(out, "%-20s %s\n", w.Name, w.Desc)
		}
		return nil
	}

	// Wall-clock audit: the only time reads in the benchmark driver form
	// a monotonic stopwatch injected into internal/bench. Durations are
	// reported, never fed back into seeds or configs, so reproducibility
	// of the simulated results is untouched (docs/LINTING.md).
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }

	progress := func(m bench.Measurement) {
		fmt.Fprintf(os.Stderr, "%-20s ticks=%-8d ns/tick=%-10.0f allocs/tick=%-9.1f wall=%v\n",
			m.Workload, m.Ticks, m.NsPerTick, m.AllocsPerTick,
			time.Duration(m.WallNs).Round(time.Millisecond))
	}

	if *traceDir != "" {
		if err := captureTraces(*traceDir, workloads, *seed); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d traces to %s\n", len(workloads), *traceDir)
	}

	if *gateFile != "" {
		return runGate(*gateFile, workloads, *tolerance, clock, progress, out)
	}

	measurements, err := bench.RunAll(workloads, *trials, *seed, clock, progress)
	if err != nil {
		return err
	}
	rep := bench.Report{Schema: bench.Schema, Label: *label, Current: measurements}
	if *baseFile != "" {
		f, err := os.Open(*baseFile)
		if err != nil {
			return err
		}
		base, err := bench.Read(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		rep.Baseline = base.Current
		if rep.Label == "" {
			rep.Label = base.Label
		}
	}
	if *outFile == "" {
		return bench.Write(out, rep)
	}
	f, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	if err := bench.Write(f, rep); err != nil {
		_ = f.Close() // best-effort cleanup; the write error wins
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d workloads)\n", *outFile, len(measurements))
	for _, m := range measurements {
		if sp, ok := rep.Speedup(m.Workload); ok {
			fmt.Fprintf(out, "  %-20s %.2fx vs baseline (%.0f -> %.0f ns/tick)\n",
				m.Workload, sp, mustFind(rep.Baseline, m.Workload).NsPerTick, m.NsPerTick)
		}
	}
	return nil
}

// captureTraces runs trial 0 of each workload once, untimed, with a
// per-tick tracer writing <dir>/<workload>.jsonl. The seeds match what
// the timed run's trial 0 uses (bench.TrialSeed), so a captured trace
// describes exactly the run the measurements time — without its
// overhead ever appearing in them.
func captureTraces(dir string, workloads []bench.Workload, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		sink, err := obs.NewFileSink(filepath.Join(dir, w.Name+".jsonl"))
		if err != nil {
			return err
		}
		cfg := w.Config(bench.TrialSeed(seed, 0))
		cfg.Trace = obs.New(sink)
		_, err = sim.Run(cfg)
		if cerr := cfg.Trace.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("tracing workload %s: %w", w.Name, err)
		}
	}
	return nil
}

// runGate re-runs each committed workload at its recorded trial count and
// seed, then applies the regression gate.
func runGate(path string, workloads []bench.Workload, tolerance float64,
	clock bench.Clock, progress func(bench.Measurement), out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	committed, err := bench.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var fresh []bench.Measurement
	for _, w := range workloads {
		trials, seed := 1, uint64(1)
		for _, c := range committed.Current {
			if c.Workload == w.Name {
				trials, seed = c.Trials, c.Seed
				break
			}
		}
		m, err := bench.Measure(w, trials, seed, clock)
		if err != nil {
			return err
		}
		progress(m)
		fresh = append(fresh, m)
	}
	if err := bench.Gate(committed, fresh, tolerance); err != nil {
		return err
	}
	fmt.Fprintf(out, "gate ok: %d workloads within %.0f%% of %s\n",
		len(fresh), tolerance*100, path)
	return nil
}

// mustFind is find for reporting paths where presence was already proven.
func mustFind(ms []bench.Measurement, name string) bench.Measurement {
	for _, m := range ms {
		if m.Workload == name {
			return m
		}
	}
	return bench.Measurement{}
}
