// Command dhtsim runs a single load-balancing simulation and prints its
// outcome: runtime, runtime factor, message estimates, and (optionally)
// workload histograms at chosen ticks.
//
// Example — the paper's headline configuration:
//
//	dhtsim -nodes 1000 -tasks 100000 -strategy random -snapshots 0,5,35
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"chordbalance/internal/faults"
	"chordbalance/internal/obs"
	"chordbalance/internal/prof"
	"chordbalance/internal/ring"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
	"chordbalance/internal/strategy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dhtsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhtsim", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 1000, "initial network size")
		tasks     = fs.Int("tasks", 100000, "job size in tasks")
		strat     = fs.String("strategy", "none", strings.Join(strategy.Names(), "|"))
		churn     = fs.Float64("churn", 0, "per-tick leave/join probability")
		hetero    = fs.Bool("hetero", false, "heterogeneous strengths U{1..maxsybils}")
		byStr     = fs.Bool("work-by-strength", false, "consume strength tasks per tick")
		maxSybils = fs.Int("maxsybils", 5, "Sybil cap per host")
		threshold = fs.Int("threshold", 0, "sybilThreshold")
		succs     = fs.Int("successors", 5, "successor/predecessor list length")
		every     = fs.Int("decide-every", 5, "decision pass cadence in ticks")
		avoid     = fs.Bool("avoid-repeats", false, "neighbor strategy skips failed arcs")
		consume   = fs.String("consume", "front", "consumption order: front|back|alternate")
		seed      = fs.Uint64("seed", 1, "deterministic seed")
		snaps     = fs.String("snapshots", "", "comma-separated ticks to histogram (e.g. 0,5,35)")
		verbose   = fs.Bool("v", false, "print message accounting detail")
		jsonOut   = fs.Bool("json", false, "emit the full result as JSON (for scripting)")
		zipfObj   = fs.Int("zipf-objects", 0, "task keys reference this many Zipf-popular objects (0 = uniform)")
		zipfS     = fs.Float64("zipf-s", 1.0, "Zipf exponent when -zipf-objects > 0")
		streamT   = fs.Int("stream-tasks", 0, "extra tasks arriving during the run")
		streamR   = fs.Int("stream-rate", 0, "arrival rate in tasks/tick")
		events    = fs.String("events", "", "write the topology event log (joins/leaves/Sybils) to this CSV file")
		bursty    = fs.Bool("bursty-churn", false, "concentrate churn into periodic bursts")
		burstP    = fs.Int("burst-period", 50, "burst cycle length in ticks")
		burstD    = fs.Float64("burst-duty", 0.2, "fraction of each cycle with churn on")

		// Deterministic fault plan (docs/FAULTS.md).
		crashRate  = fs.Float64("crash-rate", 0, "per-host per-tick crash-stop probability")
		crashEvery = fs.Int("crash-burst-every", 0, "correlated crash burst cadence in ticks")
		crashSize  = fs.Int("crash-burst-size", 0, "hosts per correlated crash burst")
		partFrac   = fs.Float64("partition", 0, "partition fraction of the ID space (0 = none)")
		partStart  = fs.Int("partition-start", 0, "tick the partition forms")
		partHeal   = fs.Int("partition-heal", 0, "tick the partition heals (0 = never)")
		faultSeed  = fs.Uint64("fault-seed", 0, "fault plan seed (0 = derive from -seed)")
		replicas   = fs.Int("replicas", 0, "replication degree for crashes: 0 = default min(3, successors), -1 = off")

		// Perf-evidence profiles (docs/PERFORMANCE.md, EXPERIMENTS.md).
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		// Per-tick JSONL trace (docs/OBSERVABILITY.md; analyze with dhttrace).
		tracePath = fs.String("trace", "", "write a per-tick JSONL trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	st, ok := strategy.ByName(*strat)
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strat)
	}
	if *strat == "churn" && *churn == 0 {
		*churn = 0.01 // the churn strategy is the baseline plus turnover
	}
	mode, err := parseConsume(*consume)
	if err != nil {
		return err
	}
	snapTicks, err := parseTicks(*snaps)
	if err != nil {
		return err
	}

	cfg := sim.Config{
		Nodes:          *nodes,
		Tasks:          *tasks,
		Strategy:       st,
		ChurnRate:      *churn,
		Heterogeneous:  *hetero,
		WorkByStrength: *byStr,
		MaxSybils:      *maxSybils,
		SybilThreshold: *threshold,
		NumSuccessors:  *succs,
		DecisionEvery:  *every,
		AvoidRepeats:   *avoid,
		ConsumeMode:    mode,
		Seed:           *seed,
		SnapshotTicks:  snapTicks,
		ZipfObjects:    *zipfObj,
		ZipfExponent:   *zipfS,
		StreamTasks:    *streamT,
		StreamRate:     *streamR,
		BurstPeriod:    *burstP,
		BurstDuty:      *burstD,
	}
	if *bursty {
		cfg.ChurnModel = sim.ChurnBursty
	}
	cfg.Replicas = *replicas
	cfg.Faults = faults.Plan{
		Seed:           *faultSeed,
		CrashRate:      *crashRate,
		BurstEvery:     *crashEvery,
		BurstSize:      *crashSize,
		PartitionFrac:  *partFrac,
		PartitionStart: *partStart,
		PartitionHeal:  *partHeal,
	}
	if cfg.Faults.Seed == 0 {
		cfg.Faults.Seed = *seed
	}
	cfg.RecordEvents = *events != ""
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			return err
		}
		cfg.Trace = obs.New(sink)
	}
	res, err := sim.Run(cfg)
	if cerr := cfg.Trace.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing trace %s: %w", *tracePath, cerr)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		if err := sim.WriteEventsCSV(f, res.Events); err != nil {
			_ = f.Close() // best-effort cleanup; the write error wins
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d events to %s\n", len(res.Events), *events)
	}

	fmt.Fprintf(out, "strategy=%s nodes=%d tasks=%d churn=%g hetero=%v\n",
		st.Name(), *nodes, *tasks, *churn, *hetero)
	fmt.Fprintf(out, "ticks=%d ideal=%d runtime-factor=%.3f completed=%v\n",
		res.Ticks, res.IdealTicks, res.RuntimeFactor, res.Completed)
	fmt.Fprintf(out, "joins=%d leaves=%d sybils-created=%d sybils-dropped=%d final-vnodes=%d\n",
		res.Messages.Joins, res.Messages.Leaves, res.Messages.SybilsCreated,
		res.Messages.SybilsDropped, res.FinalVNodes)
	if !cfg.Faults.Zero() {
		f := res.Faults
		fmt.Fprintf(out, "crashes=%d keys-lost=%d keys-recovered=%d resubmitted=%d mttr=%.2f repair-msgs=%d\n",
			f.Crashes, f.KeysLost, f.KeysRecovered, f.Resubmitted,
			f.MeanTimeToRepair(), f.RepairMessages)
		if f.PartitionTicks > 0 || f.BlockedJoins > 0 || f.BlockedSybils > 0 {
			fmt.Fprintf(out, "partition-ticks=%d blocked-joins=%d blocked-sybils=%d\n",
				f.PartitionTicks, f.BlockedJoins, f.BlockedSybils)
		}
	}
	if *verbose {
		fmt.Fprintf(out, "lookup-msgs=%d maintenance-msgs=%d\n",
			res.Messages.LookupMessages, res.Messages.Maintenance)
		// Print strategy counters in sorted order so dhtsim output is
		// byte-identical run to run (map iteration order is not).
		kinds := make([]string, 0, len(res.Messages.Strategy))
		for kind := range res.Messages.Strategy {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			fmt.Fprintf(out, "strategy-msgs[%s]=%d\n", kind, res.Messages.Strategy[kind])
		}
	}
	for _, snap := range res.Snapshots {
		h := stats.NewLogHistogram(100000, 3)
		idle := 0
		for _, w := range snap.HostWorkloads {
			h.AddInt(w)
			if w == 0 {
				idle++
			}
		}
		fmt.Fprintf(out, "\n-- tick %d: %d hosts (%d idle), %d vnodes --\n",
			snap.Tick, snap.AliveHosts, idle, snap.VNodes)
		fmt.Fprint(out, h.ASCII(40))
	}
	return nil
}

func parseConsume(s string) (ring.ConsumeMode, error) {
	switch s {
	case "front":
		return ring.ConsumeFront, nil
	case "back":
		return ring.ConsumeBack, nil
	case "alternate":
		return ring.ConsumeAlternate, nil
	}
	return 0, fmt.Errorf("unknown consume mode %q", s)
}

func parseTicks(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad snapshot tick %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
