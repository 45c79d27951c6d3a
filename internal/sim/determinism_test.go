package sim_test

// Determinism regression tests: the entire simulation must be a pure
// function of its Config (seed included). Two runs with the same seed
// must agree byte for byte, and the parallel experiment driver must
// produce exactly the bytes the serial driver does — otherwise every
// figure in the paper reproduction becomes schedule-dependent. These
// tests are the executable counterpart of the dhtlint rules (norand,
// nowallclock, maporder, seedflow); see docs/LINTING.md.

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chordbalance/internal/experiments"
	"chordbalance/internal/faults"
	"chordbalance/internal/ring"
	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

// -update rewrites testdata/determinism_golden.txt from the current
// engine. Only do this for *intentional* behavior changes, and say so in
// the commit message — the file is the referee that lets pure
// performance work prove it changed nothing.
var updateGolden = flag.Bool("update", false, "rewrite determinism golden testdata")

// determinismStrategies are the four policies exercised by the
// regression: the baseline, the paper's headline random strategy, a
// neighbor-coordination strategy, and an invitation strategy. Between
// them they cover every RNG consumer in the engine: churn draws, Sybil
// placement, arc selection, and invitation targeting.
var determinismStrategies = []string{"none", "random", "neighbor", "invitation"}

// summarize flattens a Result into a single string covering every field
// that could expose nondeterminism, with map-typed fields emitted in
// sorted key order.
func summarize(res *sim.Result) string {
	s := fmt.Sprintf("ticks=%d ideal=%d factor=%.9f completed=%v hosts=%d vnodes=%d",
		res.Ticks, res.IdealTicks, res.RuntimeFactor, res.Completed,
		res.FinalAliveHosts, res.FinalVNodes)
	s += fmt.Sprintf(" joins=%d leaves=%d sybils=%d/%d lookups=%d maint=%d",
		res.Messages.Joins, res.Messages.Leaves,
		res.Messages.SybilsCreated, res.Messages.SybilsDropped,
		res.Messages.LookupMessages, res.Messages.Maintenance)
	kinds := make([]string, 0, len(res.Messages.Strategy))
	for k := range res.Messages.Strategy {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s += fmt.Sprintf(" strat[%s]=%d", k, res.Messages.Strategy[k])
	}
	strengths := make([]int, 0, len(res.CompletedByStrength))
	for k := range res.CompletedByStrength {
		strengths = append(strengths, k)
	}
	sort.Ints(strengths)
	for _, k := range strengths {
		s += fmt.Sprintf(" done[%d]=%d", k, res.CompletedByStrength[k])
	}
	for _, snap := range res.Snapshots {
		s += fmt.Sprintf(" snap%d=%v", snap.Tick, snap.HostWorkloads)
	}
	return s
}

func determinismConfig(t *testing.T, name string, seed uint64) sim.Config {
	t.Helper()
	st, ok := strategy.ByName(name)
	if !ok {
		t.Fatalf("unknown strategy %q", name)
	}
	return sim.Config{
		Nodes:         150,
		Tasks:         6000,
		Strategy:      st,
		ChurnRate:     0.01,
		Heterogeneous: true,
		Seed:          seed,
		SnapshotTicks: []int{0, 5},
	}
}

// TestRunSeedReproducible runs each strategy twice with the same seed
// and demands byte-identical summaries. The stream-static-vnodes input
// is the only identity check over streaming arrivals plus static
// virtual nodes, which the golden matrix does not cover.
func TestRunSeedReproducible(t *testing.T) {
	// mk builds the config afresh for each run: strategies such as
	// neighbor carry state.
	check := func(name string, mk func() sim.Config) {
		t.Run(name, func(t *testing.T) {
			var got [2]string
			for i := range got {
				res, err := sim.Run(mk())
				if err != nil {
					t.Fatal(err)
				}
				got[i] = fullSummary(res)
			}
			if got[0] != got[1] {
				t.Errorf("same seed, different outcome:\n run1: %s\n run2: %s", got[0], got[1])
			}
		})
	}
	for _, name := range determinismStrategies {
		check(name, func() sim.Config { return determinismConfig(t, name, 42) })
	}
	check("stream-static-vnodes", func() sim.Config {
		cfg := determinismConfig(t, "neighbor", 815)
		cfg.StreamTasks = 2000
		cfg.StreamRate = 40
		cfg.StaticVNodes = 2
		return cfg
	})
}

// fullSummary extends summarize with everything else a Result carries:
// the complete topology event log (digested), fault accounting, and the
// per-virtual-node workload vectors of every snapshot. Any reordering
// anywhere in the engine shows up here.
func fullSummary(res *sim.Result) string {
	s := summarize(res)
	h := fnv.New64a()
	for _, e := range res.Events {
		fmt.Fprintf(h, "%d/%d/%d/%s/%d;", e.Tick, e.Kind, e.Host, e.ID, e.Moved)
	}
	s += fmt.Sprintf(" events=%d:%016x", len(res.Events), h.Sum64())
	f := res.Faults
	s += fmt.Sprintf(" faults=%d/%d/%d/%d/%d/%d/%d/%d/%d/%d",
		f.Crashes, f.CrashedVNodes, f.KeysRecovered, f.KeysLost, f.Resubmitted,
		f.RepairWaves, f.RepairMessages, f.BlockedJoins, f.BlockedSybils, f.PartitionTicks)
	for _, snap := range res.Snapshots {
		s += fmt.Sprintf(" vsnap%d=%v", snap.Tick, snap.VNodeWorkloads)
	}
	return s
}

// goldenCases cover every consumption mode and every RNG consumer —
// churn, Sybil placement, crash draws, partitions — per strategy family.
func goldenCases() []struct {
	name string
	cfg  sim.Config
} {
	plan := faults.Plan{Seed: 99, CrashRate: 0.002, BurstEvery: 20, BurstSize: 2,
		PartitionFrac: 0.3, PartitionStart: 10, PartitionHeal: 40}
	var cases []struct {
		name string
		cfg  sim.Config
	}
	for _, mode := range []struct {
		name string
		mode ring.ConsumeMode
	}{{"front", ring.ConsumeFront}, {"back", ring.ConsumeBack}, {"alternate", ring.ConsumeAlternate}} {
		for _, strat := range []string{"random", "invitation"} {
			st, ok := strategy.ByName(strat)
			if !ok {
				panic("unknown strategy " + strat)
			}
			cases = append(cases, struct {
				name string
				cfg  sim.Config
			}{
				name: "consume-" + mode.name + "/" + strat,
				cfg: sim.Config{Nodes: 120, Tasks: 4000, Strategy: st,
					ChurnRate: 0.01, ConsumeMode: mode.mode, Seed: 4242,
					RecordEvents: true, SnapshotTicks: []int{0, 5, 20}},
			})
		}
	}
	for _, strat := range []string{"none", "random", "neighbor", "invitation", "oracle", "targeted"} {
		st, ok := strategy.ByName(strat)
		if !ok {
			panic("unknown strategy " + strat)
		}
		cases = append(cases, struct {
			name string
			cfg  sim.Config
		}{
			name: "churn-faults/" + strat,
			cfg: sim.Config{Nodes: 150, Tasks: 6000, Strategy: st,
				ChurnRate: 0.01, Heterogeneous: true, Seed: 77, Faults: plan,
				RecordEvents: true, SnapshotTicks: []int{0, 10}},
		})
	}
	return cases
}

// TestDeterminismGolden pins the byte-exact outcome of a matrix of runs
// — all three consumption modes, plus churn + crash/partition faults per
// strategy — against testdata/determinism_golden.txt. The file was
// recorded before the O(1)-hot-path rewrite (PR 3), so passing it proves
// the cached ring index, the Seed merge, and the workload caches changed
// no emitted byte. Regenerate with `go test ./internal/sim -run
// DeterminismGolden -update` only for intentional behavior changes.
func TestDeterminismGolden(t *testing.T) {
	path := filepath.Join("testdata", "determinism_golden.txt")
	got := make(map[string]string)
	var order []string
	for _, c := range goldenCases() {
		res, err := sim.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = fullSummary(res)
		order = append(order, c.name)
	}
	if *updateGolden {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s: %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", path, len(order))
		return
	}
	want := loadGolden(t, path)
	for _, name := range order {
		if want[name] == "" {
			t.Errorf("%s: no golden entry (run with -update)", name)
			continue
		}
		if got[name] != want[name] {
			t.Errorf("%s: engine output drifted from pre-optimization golden:\n got:  %s\n want: %s",
				name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden entry %s no longer generated", name)
		}
	}
}

// loadGolden parses a name-to-summary golden file recorded by
// TestDeterminismGolden's -update mode.
func loadGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		name, sum, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = sum
	}
	return want
}

// TestSerialParallelIdentical runs the experiment driver once with a
// single worker and once with several, over the same seeds, and demands
// byte-identical aggregate statistics. The parallel driver may schedule
// trials in any order, but each trial's seed — and therefore its result
// — must not depend on which goroutine ran it.
func TestSerialParallelIdentical(t *testing.T) {
	for _, name := range determinismStrategies {
		t.Run(name, func(t *testing.T) {
			// The cell replaces the template's strategy and seed per trial.
			cell := experiments.Cell{Strategy: name, Config: determinismConfig(t, name, 0)}
			var got [2]string
			for i, workers := range []int{1, 4} {
				stat, err := experiments.FactorStat(cell, 0,
					experiments.Options{Trials: 6, Seed: 7, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got[i] = fmt.Sprintf("%v min=%.9f max=%.9f", stat, stat.Min, stat.Max)
			}
			if got[0] != got[1] {
				t.Errorf("serial and parallel drivers disagree:\n serial:   %s\n parallel: %s", got[0], got[1])
			}
		})
	}
}
