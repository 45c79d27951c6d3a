// Package bench is the repository's performance-trajectory harness: it
// runs a fixed set of the paper's workloads at fixed seeds, measures
// ns/tick, allocs/tick and total wall time, and serializes the results
// as JSON (`BENCH_<pr>.json` at the repo root). Each perf-focused PR
// records a baseline (the numbers before its change) and a current
// section (after), so the repo carries an auditable speed trajectory and
// CI can fail any change that regresses ns/tick beyond a tolerance —
// see docs/PERFORMANCE.md.
//
// The package is stdlib-only and never reads the wall clock itself: the
// caller (cmd/dhtbench) injects a monotonic Clock, which keeps
// internal/ free of wall-clock reads (the dhtlint nowallclock rule) and
// makes the harness unit-testable with a fake clock.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"chordbalance/internal/faults"
	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

// Schema is the BENCH_*.json schema version; bump it when the shape of
// Report changes incompatibly.
const Schema = 1

// Clock returns monotonic nanoseconds since an arbitrary origin. The
// harness only ever subtracts two readings.
type Clock func() int64

// Workload is one named, fully deterministic benchmark configuration.
type Workload struct {
	Name string
	Desc string
	// Config builds the simulation config for one trial. It must return
	// a fresh strategy instance per call (strategies carry per-run state).
	Config func(seed uint64) sim.Config
	// Trials, when non-zero, overrides the caller's trial count for this
	// workload. The scale-* workloads use it so a whole-suite recording
	// pays one trial each for the big worlds while the PR 3 workloads
	// keep their historical three.
	Trials int
}

// mustStrategy resolves a strategy name, panicking on typos — workload
// definitions are compile-time constants in spirit.
func mustStrategy(name string) strategy.Strategy {
	s, ok := strategy.ByName(name)
	if !ok {
		panic(fmt.Sprintf("bench: unknown strategy %q", name))
	}
	return s
}

// Workloads returns the paper-derived benchmark suite, in reporting
// order. The names are stable identifiers: BENCH_*.json files and the CI
// regression gate match measurements by them.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "table2-churn-10k",
			Desc: "Table II churn workload at 10k nodes: 100k tasks, churn 0.01, no strategy",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 10000, Tasks: 100000, ChurnRate: 0.01, Seed: seed}
			},
		},
		{
			Name: "baseline-1k",
			Desc: "Table I headline network: 1k nodes, 100k tasks, no churn, no strategy",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000, Tasks: 100000, Seed: seed}
			},
		},
		{
			Name: "random-1k",
			Desc: "§VI-B random injection: 1k nodes, 100k tasks",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000, Tasks: 100000,
					Strategy: mustStrategy("random"), Seed: seed}
			},
		},
		{
			Name: "neighbor-churn-1k",
			Desc: "§VI-C neighbor injection under churn: 1k nodes, 100k tasks, churn 0.001",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: 0.001,
					Strategy: mustStrategy("neighbor"), Seed: seed}
			},
		},
		{
			Name: "oracle-1k",
			Desc: "global oracle upper bound: 1k nodes, 100k tasks (stresses the full-sort path)",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000, Tasks: 100000,
					Strategy: mustStrategy("oracle"), Seed: seed}
			},
		},
		{
			Name: "zipf-stream-1k",
			Desc: "Zipf-skewed streaming arrivals: 1k nodes, 20k+80k tasks at 2k/tick (stresses Seed)",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000, Tasks: 20000,
					StreamTasks: 80000, StreamRate: 2000,
					ZipfObjects: 2000, Strategy: mustStrategy("random"), Seed: seed}
			},
		},
		{
			Name: "crash-faults-1k",
			Desc: "crash-stop churn with replication: 1k nodes, 50k tasks, churn 0.01, crash bursts",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000, Tasks: 50000, ChurnRate: 0.01,
					Strategy: mustStrategy("random"), Seed: seed,
					Faults: faults.Plan{Seed: seed, CrashRate: 0.001,
						BurstEvery: 25, BurstSize: 2}}
			},
		},
		{
			Name: "scale-100k",
			Desc: "tick engine at 100k hosts: 2M tasks, churn 0.001, random strategy",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 100000, Tasks: 2000000, ChurnRate: 0.001,
					Strategy: mustStrategy("random"), Seed: seed}
			},
			Trials: 1,
		},
		{
			Name: "scale-1m",
			Desc: "tick engine at 1M hosts: 4M tasks, churn 0.0001",
			Config: func(seed uint64) sim.Config {
				return sim.Config{Nodes: 1000000, Tasks: 4000000, ChurnRate: 0.0001,
					Seed: seed}
			},
			Trials: 1,
		},
	}
}

// Filter returns the workloads whose names are listed in csv (comma
// separated); an empty csv keeps everything. Unknown names error rather
// than silently measuring nothing.
func Filter(ws []Workload, csv string) ([]Workload, error) {
	if csv == "" {
		return ws, nil
	}
	byName := make(map[string]Workload, len(ws))
	for _, w := range ws {
		byName[w.Name] = w
	}
	var out []Workload
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// TrialSeed derives the seed for one trial, mirroring the SplitMix64
// finalization used by internal/experiments so trials stay independent
// but reproducible. Exported so dhtbench's untimed -trace capture mode
// can replay exactly the seed a timed trial would use.
func TrialSeed(base uint64, trial int) uint64 {
	x := base ^ 0xbf58476d1ce4e5b9*uint64(trial+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// Measurement is the result of running one workload for a number of
// trials. Ticks is exact and deterministic for a given (seed, trials)
// pair — the regression gate uses it as a free determinism check; the
// timing fields are machine-dependent.
type Measurement struct {
	Workload  string `json:"workload"`
	Trials    int    `json:"trials"`
	Seed      uint64 `json:"seed"`
	Ticks     int64  `json:"ticks"`
	Completed bool   `json:"completed"`
	// WallNs covers everything a caller pays per trial: construction
	// (ring build + key seeding) plus the tick loop. NsPerTick is WallNs
	// amortized over simulated ticks.
	WallNs        int64   `json:"wall_ns"`
	NsPerTick     float64 `json:"ns_per_tick"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
	BytesPerTick  float64 `json:"bytes_per_tick"`
}

// Measure runs one workload trials times, serially, and aggregates the
// wall time and allocation deltas around the whole loop. A workload with
// its own Trials override wins over the caller's count.
func Measure(w Workload, trials int, seed uint64, clock Clock) (Measurement, error) {
	if w.Trials > 0 {
		trials = w.Trials
	}
	m := Measurement{Workload: w.Name, Trials: trials, Seed: seed, Completed: true}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock()
	for t := 0; t < trials; t++ {
		res, err := sim.Run(w.Config(TrialSeed(seed, t)))
		if err != nil {
			return m, fmt.Errorf("bench: workload %s trial %d: %w", w.Name, t, err)
		}
		m.Ticks += int64(res.Ticks)
		if !res.Completed {
			m.Completed = false
		}
	}
	m.WallNs = clock() - start
	runtime.ReadMemStats(&after)
	if m.Ticks > 0 {
		m.NsPerTick = float64(m.WallNs) / float64(m.Ticks)
		m.AllocsPerTick = float64(after.Mallocs-before.Mallocs) / float64(m.Ticks)
		m.BytesPerTick = float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Ticks)
	}
	return m, nil
}

// RunAll measures every workload in order. progress may be nil.
func RunAll(ws []Workload, trials int, seed uint64, clock Clock, progress func(Measurement)) ([]Measurement, error) {
	out := make([]Measurement, 0, len(ws))
	for _, w := range ws {
		m, err := Measure(w, trials, seed, clock)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(m)
		}
		out = append(out, m)
	}
	return out, nil
}

// Report is the on-disk shape of a BENCH_*.json file. Baseline holds the
// measurements taken on the code *before* the PR's change (on the same
// machine, same trials and seed); Current holds the measurements after.
// Future PRs gate against Current.
type Report struct {
	Schema   int           `json:"schema"`
	Label    string        `json:"label,omitempty"`
	Baseline []Measurement `json:"baseline,omitempty"`
	Current  []Measurement `json:"current"`
}

// find returns the measurement for a workload name, if present.
func find(ms []Measurement, name string) (Measurement, bool) {
	for _, m := range ms {
		if m.Workload == name {
			return m, true
		}
	}
	return Measurement{}, false
}

// Speedup returns baseline ns/tick divided by current ns/tick for one
// workload (values > 1 mean the change made it faster), and false when
// either side is missing.
func (r Report) Speedup(name string) (float64, bool) {
	b, okB := find(r.Baseline, name)
	c, okC := find(r.Current, name)
	if !okB || !okC || c.NsPerTick == 0 {
		return 0, false
	}
	return b.NsPerTick / c.NsPerTick, true
}

// Read parses a Report and validates its schema.
func Read(r io.Reader) (Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: parsing report: %w", err)
	}
	if rep.Schema != Schema {
		return rep, fmt.Errorf("bench: report schema %d, this binary speaks %d", rep.Schema, Schema)
	}
	return rep, nil
}

// Write serializes a Report as indented JSON.
func Write(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Gate compares fresh measurements against the committed report's
// Current section and returns an error describing every violation:
//
//   - a tick-count mismatch at matching (trials, seed) is a determinism
//     regression — the engine's behavior drifted; this check is exact
//     and machine-independent;
//   - a workload whose fresh/committed ns/tick ratio exceeds the
//     leave-one-out median ratio of the other gated workloads by more
//     than the tolerance is a performance regression. Normalizing by
//     the median cancels uniform machine-speed differences, so the gate
//     is meaningful on hardware other than the recording machine (CI);
//     what it cannot catch is a change that slows *every* workload by
//     the same factor — the committed trajectory in BENCH_*.json and a
//     local `make bench-gate` on the recording machine cover that.
//     With a single gated workload the ratio has no peers, and the gate
//     falls back to the absolute committed number.
//
// Workloads present on only one side are ignored (suites may grow).
func Gate(committed Report, fresh []Measurement, tolerance float64) error {
	type pair struct {
		f, c  Measurement
		ratio float64
	}
	var (
		violations []string
		pairs      []pair
	)
	for _, f := range fresh {
		c, ok := find(committed.Current, f.Workload)
		if !ok {
			continue
		}
		if c.Trials == f.Trials && c.Seed == f.Seed && c.Ticks != f.Ticks {
			violations = append(violations, fmt.Sprintf(
				"%s: tick count drifted (committed %d, measured %d) — determinism regression",
				f.Workload, c.Ticks, f.Ticks))
			continue
		}
		if c.NsPerTick > 0 {
			pairs = append(pairs, pair{f: f, c: c, ratio: f.NsPerTick / c.NsPerTick})
		}
	}
	for i, p := range pairs {
		// Median ratio of the *other* workloads: the machine-speed
		// estimate this workload must not disproportionately exceed.
		others := make([]float64, 0, len(pairs)-1)
		for j, q := range pairs {
			if j != i {
				others = append(others, q.ratio)
			}
		}
		norm := median(others)
		if len(others) == 0 {
			norm = 1 // no peers: gate against the absolute committed number
		}
		limit := norm * (1 + tolerance)
		if p.ratio > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/tick %.0f exceeds committed %.0f by more than %.0f%% beyond the suite's median speed ratio %.2f (ratio %.2f, limit %.2f)",
				p.f.Workload, p.f.NsPerTick, p.c.NsPerTick, tolerance*100, norm, p.ratio, limit))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("bench: regression gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// median returns the middle value of s (mean of the middle two for even
// lengths) without mutating it; 0 for an empty slice.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	if n := len(sorted); n%2 == 1 {
		return sorted[n/2]
	} else {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}
