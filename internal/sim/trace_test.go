package sim

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"chordbalance/internal/obs"
	"chordbalance/internal/stats"
	"chordbalance/internal/strategy"
)

// tracedConfig is a small but busy run: churn, Sybil strategy, crashes,
// and snapshots, so every metric family in the catalog gets exercised.
func tracedConfig(seed uint64) Config {
	return Config{
		Nodes:         60,
		Tasks:         3000,
		Strategy:      strategy.NewRandomInjection(),
		ChurnRate:     0.05,
		Seed:          seed,
		SnapshotTicks: []int{0, 5, 35},
	}
}

// TestTracedRunMatchesUntraced is the no-perturbation guarantee: tracing
// only reads engine state, so attaching a tracer must not change the
// Result in any field.
func TestTracedRunMatchesUntraced(t *testing.T) {
	plain, err := Run(tracedConfig(42))
	if err != nil {
		t.Fatal(err)
	}

	var sink obs.MemSink
	cfg := tracedConfig(42)
	cfg.Trace = obs.New(&sink)
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the run:\nuntraced: %+v\ntraced:   %+v", plain, traced)
	}
	if len(sink.Bytes()) == 0 {
		t.Fatal("traced run emitted nothing")
	}
}

// TestTraceByteDeterminism asserts the CI-level guarantee: same seed,
// same trace bytes.
func TestTraceByteDeterminism(t *testing.T) {
	emit := func() string {
		var sink obs.MemSink
		cfg := tracedConfig(7)
		cfg.Trace = obs.New(&sink)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		return sink.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatal("same seed produced different trace bytes")
	}
}

// TestTraceAgreesWithSnapshots cross-checks the per-tick trace gauges
// against the engine's own Snapshot mechanism at the snapshot ticks:
// max, mean, idle count, Gini, and the log-binned histogram must all be
// derivable from Snapshot.HostWorkloads.
func TestTraceAgreesWithSnapshots(t *testing.T) {
	var sink obs.MemSink
	cfg := tracedConfig(99)
	cfg.Trace = obs.New(&sink)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	byTick := make(map[int]obs.Tick, len(tr.Ticks))
	for _, rec := range tr.Ticks {
		byTick[rec.Tick] = rec
	}
	edges := stats.LogEdges(workloadHistMax, workloadHistBinsPerDecade)

	checked := 0
	for _, snap := range res.Snapshots {
		rec, ok := byTick[snap.Tick]
		if !ok {
			t.Fatalf("no trace record for snapshot tick %d", snap.Tick)
		}
		maxW, sum, idle := 0, 0, 0
		wantHist := make([]int64, len(edges)+1)
		vals := make([]float64, 0, len(snap.HostWorkloads))
		for _, w := range snap.HostWorkloads {
			sum += w
			if w > maxW {
				maxW = w
			}
			if w == 0 {
				idle++
			}
			b := sort.SearchFloat64s(edges, float64(w))
			if b < len(edges) && edges[b] == float64(w) {
				b++ // buckets are [edge, nextEdge)
			}
			wantHist[b]++
			vals = append(vals, float64(w))
		}
		if got := rec.Gauges["sim.workload.max"]; got != float64(maxW) {
			t.Errorf("tick %d: workload.max = %v, snapshot says %d", snap.Tick, got, maxW)
		}
		wantMean := 0.0
		if len(vals) > 0 {
			wantMean = float64(sum) / float64(len(vals))
		}
		if got := rec.Gauges["sim.workload.mean"]; got != wantMean {
			t.Errorf("tick %d: workload.mean = %v, snapshot says %v", snap.Tick, got, wantMean)
		}
		if got := rec.Gauges["sim.hosts.idle"]; got != float64(idle) {
			t.Errorf("tick %d: hosts.idle = %v, snapshot says %d", snap.Tick, got, idle)
		}
		if got := rec.Gauges["sim.hosts.alive"]; got != float64(snap.AliveHosts) {
			t.Errorf("tick %d: hosts.alive = %v, snapshot says %d", snap.Tick, got, snap.AliveHosts)
		}
		if got := rec.Gauges["sim.vnodes"]; got != float64(snap.VNodes) {
			t.Errorf("tick %d: vnodes = %v, snapshot says %d", snap.Tick, got, snap.VNodes)
		}
		if got := rec.Gauges["sim.workload.gini"]; got != gini(vals) {
			t.Errorf("tick %d: workload.gini = %v, snapshot says %v", snap.Tick, got, gini(vals))
		}
		gotHist := rec.Hists["sim.workload.hosts"]
		if !reflect.DeepEqual(gotHist, wantHist) {
			t.Errorf("tick %d: workload hist = %v, snapshot says %v", snap.Tick, gotHist, wantHist)
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d snapshot ticks checked; run too short to be meaningful", checked)
	}
}

// TestRunNilTracerZeroAlloc guards the disabled fast path: with no
// tracer configured the engine holds no metric state and the per-tick
// hook is a single nil check that allocates nothing.
func TestRunNilTracerZeroAlloc(t *testing.T) {
	s, err := New(tracedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.obsm != nil {
		t.Fatal("nil Config.Trace still built metric state")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if s.obsm != nil {
			s.obsm.observe(s, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled per-tick hook allocated %v, want 0", allocs)
	}
}
