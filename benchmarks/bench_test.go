package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	} {
		if got := percentile(sorted, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", sorted, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns, the rule the benchmark is
// accepted by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9, 1, 4, 7, 3}, 2, 4, 8},
		{[]float64{100, 104, 98, 101, 97, 103, 99, 102, 100, 96}, 97.75, 100, 102.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates past the ends
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relSpread([]float64{100, 104, 98, 101, 97, 103, 99, 102, 100, 96}); !near(got, 0.045) {
		t.Errorf("relSpread = %g, want 0.045", got)
	}
}

// handCalibrator returns a calibrator whose marks were written by hand:
// kernel runs of the given durations, separated by the given gaps.
func handCalibrator(nominal time.Duration, kernel, gaps []time.Duration) *calibrator {
	c := &calibrator{spec: kernelSpec{nominal: nominal}}
	at := time.Duration(0)
	for i, k := range kernel {
		c.marks = append(c.marks, mark{start: at, end: at + k})
		at += k
		if i < len(gaps) {
			at += gaps[i]
		}
	}
	return c
}

func TestCalibrationScaling(t *testing.T) {
	ms := time.Millisecond
	// kernel nominally 1 ms; the host runs it in 1, 3 and 2 ms
	c := handCalibrator(ms, []time.Duration{ms, 3 * ms, 2 * ms}, []time.Duration{20 * ms, 10 * ms})
	if got := c.scale(0); !near(got, 0.5) { // mean of 1 and 3 is 2: half speed
		t.Errorf("scale(0) = %g, want 0.5", got)
	}
	if got := c.scale(1); !near(got, 0.4) {
		t.Errorf("scale(1) = %g, want 0.4", got)
	}
	raw, norm := c.between(0, 2)
	if raw != 30*ms || norm != 14*ms { // 20*0.5 + 10*0.4
		t.Errorf("between(0,2) = %v raw, %v normalised; want 30ms, 14ms", raw, norm)
	}
	if got := c.medianMicros(); !near(got, 2000) {
		t.Errorf("medianMicros = %g, want 2000", got)
	}
}

// TestSliceArithmetic checks the per-slice rates, their median and the
// per-op latencies against a hand-made phase of three slices.
func TestSliceArithmetic(t *testing.T) {
	ms := time.Millisecond
	// a steady host (kernel always at nominal), slices of 20, 10 and 40 ms
	c := handCalibrator(ms, []time.Duration{ms, ms, ms, ms}, []time.Duration{20 * ms, 10 * ms, 40 * ms})
	slices := []sliceRec{
		{mark: 0, n: 100, latAt: [netClients]int{0, 0}},
		{mark: 1, n: 80, traced: true, latAt: [netClients]int{2, 1}},
		{mark: 2, n: 100, latAt: [netClients]int{2, 2}},
	}
	norm, raw := sliceRates(c, slices, false)
	if len(norm) != 2 || !near(norm[0], 5000) || !near(norm[1], 2500) || !near(raw[0], 5000) {
		t.Fatalf("untraced rates = %v (raw %v), want [5000 2500]", norm, raw)
	}
	if got := median(norm); !near(got, 3750) {
		t.Errorf("median window rate = %g, want 3750", got)
	}
	traced, _ := sliceRates(c, slices, true)
	if len(traced) != 1 || !near(traced[0], 8000) {
		t.Errorf("traced rates = %v, want [8000]", traced)
	}
	workers := []*worker{
		{lat: []uint32{1000, 3000, 5000}},       // slice 0: 1000, 3000; slice 2: 5000
		{lat: []uint32{2000, 9000, 4000, 6000}}, // slice 0: 2000; slice 1 (traced): 9000; slice 2: 4000, 6000
	}
	lat, sliceP50, rawSliceP50 := latencies(c, slices, workers)
	want := []float64{1, 2, 3, 4, 5, 6}
	if len(lat) != len(want) {
		t.Fatalf("latencies = %v, want %v", lat, want)
	}
	for i := range want {
		if !near(lat[i], want[i]) {
			t.Fatalf("latencies = %v, want %v", lat, want)
		}
	}
	// slice 0 holds 1, 2, 3 (median 2), slice 2 holds 4, 5, 6 (median 5)
	if len(sliceP50) != 2 || !near(sliceP50[0], 2) || !near(sliceP50[1], 5) || !near(rawSliceP50[1], 5) {
		t.Errorf("slice medians = %v (raw %v), want [2 5]", sliceP50, rawSliceP50)
	}
	if got := median(sliceP50); !near(got, 3.5) {
		t.Errorf("median of slice medians = %g, want 3.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * us},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * us, End: 40 * us},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * us, End: 60 * us},     // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90 * us, End: 120 * us},    // clipped to the parent
		{ID: 4, Parent: 1, Name: "a1", Start: 15 * us, End: 20 * us},    // grandchild
		{ID: 5, Parent: -1, Name: "op", Start: 200 * us, End: 230 * us}, // childless root
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 40 * us, 1: 25 * us, 2: 30 * us, 3: 30 * us, 4: 5 * us, 5: 30 * us}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	well := spans[:2]
	well = append(well[:2:2], spans[4], spans[5])
	selfSum, rootSum := selfTimeCheck(well)
	if selfSum != rootSum || rootSum != 130*us {
		t.Errorf("well-nested trace: self times sum to %v, roots to %v, want both 130µs", selfSum, rootSum)
	}
	if got := spanDurations(spans, "op"); len(got) != 2 || !near(got[0], 100) || !near(got[1], 30) {
		t.Errorf("spanDurations(op) = %v, want [100 30]", got)
	}
}

func TestGoldenSet(t *testing.T) {
	g := &goldenSet{workload: "w", streams: map[string][]string{}}
	g.record("seed-1", []string{"aa", "bb", "cc"})
	if got, ok := g.lookup("seed-1", 3); !ok || got != "cc" {
		t.Errorf("lookup(seed-1, 3) = %q %t, want cc", got, ok)
	}
	g.record("seed-1", []string{"aa", "xx"})
	if _, ok := g.lookup("seed-1", 3); ok {
		t.Error("recording a shorter run kept the stale tail")
	}
	if _, ok := g.lookup("seed-9", 1); ok {
		t.Error("lookup of an unrecorded stream succeeded")
	}
	dir := t.TempDir()
	if err := g.write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/w.golden")
	if err != nil || !strings.Contains(string(data), "seed-1 2 xx\n") {
		t.Errorf("written golden file = %q, %v", data, err)
	}
}

// runCapture runs the benchmark in-process and returns its exit code,
// output and parsed result line.
func runCapture(t *testing.T, args ...string) (int, string, jsonResult) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result (%v); stderr: %s\nstdout: %s", args, err, errw.String(), out.String())
	}
	return code, out.String(), res
}

// inScratch runs the test from a temporary directory, where the
// benchmark may create its .bench_build.
func inScratch(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

// TestDigestStable runs the same seed twice: the simulated statistics,
// the digests and the allocation counts must repeat exactly, and the
// committed golden must match.
func TestDigestStable(t *testing.T) {
	inScratch(t)
	digest := regexp.MustCompile(`digest seed-1 after 1 ops: ([0-9a-f]{16}) matches golden`)
	var first string
	var allocs float64
	for i := 0; i < 2; i++ {
		code, out, res := runCapture(t, "-workload", "sim-paper-1k", "-seed", "1", "-short")
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Fatalf("run %d: exit %d, result %+v\n%s", i, code, res, out)
		}
		m := digest.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("run %d printed no matching seed digest:\n%s", i, out)
		}
		if !strings.Contains(out, "digest canary after 1 ops") || strings.Contains(out, "MISMATCH") {
			t.Fatalf("run %d: canary not checked:\n%s", i, out)
		}
		if i == 0 {
			first, allocs = m[1], res.Metrics["allocs_per_op"].Value
			continue
		}
		if m[1] != first {
			t.Errorf("digest changed between two same-seed runs: %s then %s", first, m[1])
		}
		// the simulator's own allocations repeat exactly; the Go runtime
		// adds or drops a handful (first-use initialisation) per process
		if got := res.Metrics["allocs_per_op"].Value; math.Abs(got-allocs) > 1e-4*allocs {
			t.Errorf("allocs_per_op changed between two same-seed runs: %v then %v", allocs, got)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at smoke-test size — the
// networked ones over real loopback TCP — untraced and traced, and
// checks that each reports every metric of its mode and no failure.
func TestSmokeAllWorkloads(t *testing.T) {
	inScratch(t)
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			code, out, res := runCapture(t, "-workload", w.name, "-seed", "3", "-short", "-trace", mode)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.name, mode, code, res, out)
			}
			defs := endToEnd
			if mode == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v (present %t), want unit %s", w.name, mode, d.name, m, ok, d.unit)
				}
				if mode == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, m.Value)
				}
			}
		}
	}
	if entries, err := os.ReadDir(scratchDir); err != nil {
		t.Fatal(err)
	} else {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "data-") {
				t.Errorf("data directory %s left behind", e.Name())
			}
		}
	}
}

func TestUnknownWorkloadAndBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errw); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want 2 and nothing", code, out.String())
	}
	if code := run([]string{"-workload", "sim-paper-1k", "-seconds", "0"}, &out, &errw); code != 2 {
		t.Errorf("-seconds 0: exit %d, want 2", code)
	}
}

// benchmarkJSON mirrors the BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// driver reads, equal to the catalogue the program prints from, and
// inside the contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue %+v", i, b.Workloads[i], w)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || !name.MatchString(w.name) {
			t.Errorf("workload %s breaks the name or why limits", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != better(d.higher) || j.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, catalogue %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 || !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("end-to-end metric %s breaks the contract's limits", d.name)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, catalogue %+v", i, j, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("per-layer metric %s breaks the contract's limits", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] || len(perLayer) > 128 || len(endToEnd) > 16 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Error("BENCHMARK.json breaks the contract's counts or lacks setup_s")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", b.Paths)
	}
}
