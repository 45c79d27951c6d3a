package experiments

import (
	"sync"
	"testing"

	"chordbalance/internal/obs"
	"chordbalance/internal/sim"
)

// TestSweepTraceSerialMatchesParallel: per-trial tracers are exclusive
// to their trial, so a parallel sweep must produce byte-identical traces
// to the same sweep run serially — worker scheduling cannot leak into
// the records.
func TestSweepTraceSerialMatchesParallel(t *testing.T) {
	c := Cell{Config: sim.Config{Nodes: 40, Tasks: 1200, ChurnRate: 0.02}}
	const trials = 6
	sweep := func(workers int) []string {
		sinks := make([]*obs.MemSink, trials)
		var mu sync.Mutex
		opt := Options{
			Trials:  trials,
			Workers: workers,
			Seed:    11,
			Trace: func(cell, trial int) *obs.Tracer {
				s := &obs.MemSink{}
				mu.Lock()
				sinks[trial] = s
				mu.Unlock()
				return obs.New(s)
			},
		}
		if _, err := FactorStat(c, 3, opt); err != nil {
			t.Fatal(err)
		}
		out := make([]string, trials)
		for i, s := range sinks {
			if s == nil || len(s.Bytes()) == 0 {
				t.Fatalf("trial %d produced no trace", i)
			}
			out[i] = s.String()
		}
		return out
	}

	serial, par := sweep(1), sweep(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("trial %d: serial and parallel sweeps produced different trace bytes", i)
		}
	}
}

// TestSweepUntracedMatchesTraced: threading tracers through the trial
// runner must not change what an experiment reports, and it must give
// every (cell, trial) its own tracer: FactorStat's cells, and Traffic,
// which ran its trials outside the runner and untraced before.
func TestSweepUntracedMatchesTraced(t *testing.T) {
	// traced returns opt with a trace hook, and the count of tracers it
	// handed out by (cell, trial).
	traced := func(opt Options) (Options, map[[2]int]int) {
		var mu sync.Mutex
		seen := map[[2]int]int{}
		opt.Trace = func(cell, trial int) *obs.Tracer {
			mu.Lock()
			seen[[2]int{cell, trial}]++
			mu.Unlock()
			return obs.New(&obs.MemSink{})
		}
		return opt, seen
	}
	checkOnePerTrial := func(name string, seen map[[2]int]int, cells, trials int) {
		t.Helper()
		if len(seen) != cells*trials {
			t.Errorf("%s: %d (cell, trial) pairs traced, want %d", name, len(seen), cells*trials)
		}
		for k, n := range seen {
			if n != 1 || k[0] >= cells || k[1] >= trials {
				t.Errorf("%s: cell %d trial %d traced %d times", name, k[0], k[1], n)
			}
		}
	}

	c := Cell{Config: sim.Config{Nodes: 40, Tasks: 1200}}
	base := Options{Trials: 4, Workers: 2, Seed: 5}
	plain, err := FactorStat(c, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	opt, seen := traced(base)
	got, err := FactorStat(c, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain != got {
		t.Fatalf("tracing changed the sweep statistics: %+v vs %+v", plain, got)
	}
	checkOnePerTrial("FactorStat", seen, 1, 4)

	if testing.Short() {
		t.Skip("Traffic runs seven 1000-node cells")
	}
	base = Options{Trials: 2, Workers: 2, Seed: 5}
	plainTbl, err := Traffic(base)
	if err != nil {
		t.Fatal(err)
	}
	opt, seen = traced(base)
	gotTbl, err := Traffic(opt)
	if err != nil {
		t.Fatal(err)
	}
	if plainTbl.String() != gotTbl.String() {
		t.Errorf("tracing changed the traffic table:\n%s\n%s", plainTbl, gotTbl)
	}
	checkOnePerTrial("Traffic", seen, 7, 2)
}
