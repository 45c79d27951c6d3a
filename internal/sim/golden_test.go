package sim

import (
	"fmt"
	"testing"

	"chordbalance/internal/faults"
	"chordbalance/internal/strategy"
)

// TestGoldenDeterminism pins the exact outcome of one fixed-seed run per
// strategy. These numbers are not meaningful in themselves; the test
// exists so that any change to the engine's event ordering, RNG
// consumption, or strategy logic is *visible* — the figures and tables
// are all derived from runs like these, and silent drift would
// invalidate EXPERIMENTS.md. If you change behavior intentionally,
// update the constants and re-run the experiments.
func TestGoldenDeterminism(t *testing.T) {
	golden := []struct {
		strategyName string
		churn        float64
		wantTicks    int
	}{
		{"none", 0, 486},
		{"none", 0.01, 353},
		{"random", 0, 201},
		{"neighbor", 0, 323},
		{"smart-neighbor", 0, 286},
		{"invitation", 0, 330},
		{"targeted", 0, 215},
		{"oracle", 0, 104},
	}
	for _, g := range golden {
		name := fmt.Sprintf("%s/churn=%g", g.strategyName, g.churn)
		t.Run(name, func(t *testing.T) {
			st, ok := strategy.ByName(g.strategyName)
			if !ok {
				t.Fatalf("unknown strategy %q", g.strategyName)
			}
			res, err := Run(Config{
				Nodes: 300, Tasks: 30000, Seed: 12345,
				Strategy: st, ChurnRate: g.churn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatal("did not complete")
			}
			if res.Ticks != g.wantTicks {
				t.Errorf("ticks = %d, golden value %d — engine behavior "+
					"changed; if intentional, update golden_test.go and "+
					"regenerate EXPERIMENTS.md", res.Ticks, g.wantTicks)
			}
		})
	}
}

// workloadTrialSeed derives trial t's seed from a base seed with a
// SplitMix64-style finalizer, so the trials of one workload row are
// independent but reproducible.
func workloadTrialSeed(base uint64, trial int) uint64 {
	x := base ^ 0xbf58476d1ce4e5b9*uint64(trial+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// tickWorkloads is a fixed seeded matrix of paper-shaped workloads: the
// Table I and II networks, each injection strategy at 1k hosts, skewed
// streaming arrivals, crash-stop faults and the 100k- and 1M-host worlds.
// wantTicks is the tick count summed over the row's trials, each seeded
// with workloadTrialSeed(1, trial).
var tickWorkloads = []struct {
	name      string
	trials    int
	wantTicks int
	large     bool // skipped under -short
	config    func(seed uint64) Config
}{
	{"table2-churn-10k", 3, 244, false, func(seed uint64) Config {
		return Config{Nodes: 10000, Tasks: 100000, ChurnRate: 0.01, Seed: seed}
	}},
	{"baseline-1k", 3, 2190, false, func(seed uint64) Config {
		return Config{Nodes: 1000, Tasks: 100000, Seed: seed}
	}},
	{"random-1k", 3, 536, false, func(seed uint64) Config {
		return Config{Nodes: 1000, Tasks: 100000,
			Strategy: strategy.NewRandomInjection(), Seed: seed}
	}},
	{"neighbor-churn-1k", 3, 958, false, func(seed uint64) Config {
		return Config{Nodes: 1000, Tasks: 100000, ChurnRate: 0.001,
			Strategy: strategy.NewNeighborInjection(), Seed: seed}
	}},
	{"oracle-1k", 3, 318, false, func(seed uint64) Config {
		return Config{Nodes: 1000, Tasks: 100000,
			Strategy: strategy.NewOracle(), Seed: seed}
	}},
	{"zipf-stream-1k", 3, 36759, false, func(seed uint64) Config {
		return Config{Nodes: 1000, Tasks: 20000,
			StreamTasks: 80000, StreamRate: 2000,
			ZipfObjects: 2000, Strategy: strategy.NewRandomInjection(), Seed: seed}
	}},
	{"crash-faults-1k", 3, 301, false, func(seed uint64) Config {
		return Config{Nodes: 1000, Tasks: 50000, ChurnRate: 0.01,
			Strategy: strategy.NewRandomInjection(), Seed: seed,
			Faults: faults.Plan{Seed: seed, CrashRate: 0.001,
				BurstEvery: 25, BurstSize: 2}}
	}},
	{"scale-100k", 1, 64, true, func(seed uint64) Config {
		return Config{Nodes: 100000, Tasks: 2000000, ChurnRate: 0.001,
			Strategy: strategy.NewRandomInjection(), Seed: seed}
	}},
	{"scale-1m", 1, 63, true, func(seed uint64) Config {
		return Config{Nodes: 1000000, Tasks: 4000000, ChurnRate: 0.0001,
			Seed: seed}
	}},
}

// TestWorkloadsAreValidAndUnique checks that every tickWorkloads row has
// a distinct name and a config that passes Validate.
func TestWorkloadsAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range tickWorkloads {
		if seen[g.name] {
			t.Errorf("duplicate workload name %q", g.name)
		}
		seen[g.name] = true
		if g.trials < 1 {
			t.Errorf("workload %q has %d trials", g.name, g.trials)
		}
		if err := g.config(workloadTrialSeed(1, 0)).Validate(); err != nil {
			t.Errorf("workload %q config invalid: %v", g.name, err)
		}
	}
	if len(seen) < 5 {
		t.Errorf("matrix has only %d workloads", len(seen))
	}
}

// TestWorkloadTickTotals pins the summed tick count of each tickWorkloads
// row. Like TestGoldenDeterminism, the totals mean nothing in themselves;
// any drift means the engine's event ordering, RNG consumption or
// strategy logic changed at a scale the 300-host goldens do not reach.
// Performance is measured by the benchmarks/ module, never here.
func TestWorkloadTickTotals(t *testing.T) {
	const baseSeed = 1
	for _, g := range tickWorkloads {
		t.Run(g.name, func(t *testing.T) {
			if g.large && testing.Short() {
				t.Skip("large world; skipped under -short")
			}
			ticks := 0
			for trial := 0; trial < g.trials; trial++ {
				res, err := Run(g.config(workloadTrialSeed(baseSeed, trial)))
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !res.Completed {
					t.Fatalf("trial %d did not complete", trial)
				}
				ticks += res.Ticks
			}
			if ticks != g.wantTicks {
				t.Errorf("ticks over %d trials = %d, golden value %d — engine "+
					"behavior changed; if intentional, update golden_test.go and "+
					"regenerate EXPERIMENTS.md", g.trials, ticks, g.wantTicks)
			}
		})
	}
}
