package sim_test

// The engine applies a host's work lazily, when something reads or
// moves its keys, and finds the end of the run from a calendar of
// finish ticks. Tracing and RecordWorkPerTick observe per-tick values,
// so they make it settle every host at every tick's consume point: the
// eager engine, tick by tick. This file runs the lazy engine against
// it over every kind of settle point.

import (
	"reflect"
	"testing"

	"chordbalance/internal/adversary"
	"chordbalance/internal/faults"
	"chordbalance/internal/obs"
	"chordbalance/internal/ring"
	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

// settleCases is goldenCases plus the configs whose settle points the
// golden matrix does not reach.
func settleCases(t *testing.T) []struct {
	name string
	cfg  sim.Config
} {
	t.Helper()
	st := func(name string) strategy.Strategy {
		s, ok := strategy.ByName(name)
		if !ok {
			t.Fatalf("unknown strategy %q", name)
		}
		return s
	}
	cases := goldenCases()
	add := func(name string, cfg sim.Config) {
		cases = append(cases, struct {
			name string
			cfg  sim.Config
		}{name, cfg})
	}
	// Budgets above 1 and hosts with Sybils: the multi-identity replay.
	add("heterogeneous-by-strength", sim.Config{Nodes: 150, Tasks: 6000,
		Strategy: st("invitation"), ChurnRate: 0.01, Heterogeneous: true,
		WorkByStrength: true, ConsumeMode: ring.ConsumeAlternate, Seed: 5,
		RecordEvents: true, SnapshotTicks: []int{0, 7, 30}})
	// Puzzle debt on joiners and on idle Sybil creators, hostile keys
	// that no host consumes, and evictions and rekeys mid-run.
	add("attack-puzzle", sim.Config{Nodes: 100, Tasks: 5000,
		Strategy: st("random"), ChurnRate: 0.01, Seed: 99, MaxTicks: 400,
		Attack: adversary.AttackConfig{Budget: 24, TargetStart: 0.25,
			TargetWidth: 1.0 / 16, WorkRate: 64},
		Defense:      adversary.DefenseConfig{PuzzleBits: 3, Threshold: 1.5, ScanEvery: 5},
		RecordEvents: true, SnapshotTicks: []int{0, 10}})
	// A Seed every tick while the stream lasts, onto skewed arcs.
	add("zipf-stream", sim.Config{Nodes: 100, Tasks: 1000, StreamTasks: 4000,
		StreamRate: 200, ZipfObjects: 300, Strategy: st("random"), Seed: 3,
		RecordEvents: true, SnapshotTicks: []int{0, 5, 25}})
	// Crash-lost keys re-seeded after the repair delay.
	add("crash-no-replication", sim.Config{Nodes: 120, Tasks: 6000,
		Strategy: st("neighbor"), ChurnRate: 0.01, Replicas: -1, Seed: 11,
		Faults:       faults.Plan{Seed: 11, CrashRate: 0.003, BurstEvery: 15, BurstSize: 2},
		RecordEvents: true})
	// The run ends with work left: the final settle must still count it.
	add("maxticks-cutoff", sim.Config{Nodes: 100, Tasks: 10000,
		Strategy: st("neighbor"), ChurnRate: 0.02, Heterogeneous: true,
		WorkByStrength: true, MaxTicks: 37, Seed: 8})
	add("one-node", sim.Config{Nodes: 1, Tasks: 50, Strategy: st("random"),
		ChurnRate: 0.05, Seed: 2, SnapshotTicks: []int{0, 3}})
	return cases
}

// TestSettlePointsMatchEagerEngine runs every settle case three ways —
// plain (lazy), traced, and with RecordWorkPerTick (both eager) — with
// the calendar recount on, and requires identical Results apart from
// WorkPerTick, which must sum to the tasks completed.
func TestSettlePointsMatchEagerEngine(t *testing.T) {
	for _, c := range settleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			run := func(mod func(*sim.Config)) *sim.Result {
				t.Helper()
				cfg := c.cfg
				cfg.CheckInvariants = true
				mod(&cfg)
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Trace != nil {
					if err := cfg.Trace.Close(); err != nil {
						t.Fatal(err)
					}
				}
				return res
			}
			plain := run(func(*sim.Config) {})
			traced := run(func(cfg *sim.Config) { cfg.Trace = obs.New(&obs.MemSink{}) })
			perTick := run(func(cfg *sim.Config) { cfg.RecordWorkPerTick = true })

			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("lazy and traced runs differ:\nlazy:   %+v\ntraced: %+v", plain, traced)
			}
			series := perTick.WorkPerTick
			perTick.WorkPerTick = nil
			if !reflect.DeepEqual(plain, perTick) {
				t.Errorf("lazy and per-tick runs differ:\nlazy:     %+v\nper-tick: %+v", plain, perTick)
			}
			if len(series) != perTick.Ticks {
				t.Errorf("WorkPerTick has %d entries for %d ticks", len(series), perTick.Ticks)
			}
			sum, completed := 0, 0
			for _, d := range series {
				sum += d
			}
			for _, n := range plain.CompletedByStrength {
				completed += n
			}
			if sum != completed {
				t.Errorf("WorkPerTick sums to %d, CompletedByStrength to %d", sum, completed)
			}
			if c.name == "maxticks-cutoff" && plain.Completed {
				t.Error("the cutoff case completed; it must end with work left")
			}
		})
	}
}
