// Command benchmarks is the repository's benchmark: four seeded
// workloads over both runtimes — the tick simulator (sim-paper-1k,
// sim-scale-100k) and the networked Chord ring with its durable store
// (net-put-r3, net-read-zipf) — measured end to end and, in a separate
// traced run, layer by layer. It lives in its own module so that it
// builds from a bare checkout without touching the repository's build:
//
//	bash benchmarks/run.sh --workload net-put-r3 --seed 1 --seconds 16 --trace 0
//	bash benchmarks/run.sh --workload net-put-r3 --seed 1 --seconds 16 --trace 1
//	bash benchmarks/run.sh --repeat 5 --workload all
//
// Every invocation prints a run header, the metrics by name with unit
// and sample count, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics (the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1). It measures each
// layer from outside, through public functions and counters; nothing
// under internal/ or cmd/ knows it exists. See README.md in this
// directory for the metric catalogue and the reasoning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart anchors the harness clock and setup_s.
var processStart = time.Now()

// sinceStart is the harness clock: every mark and span is stamped with it.
func sinceStart() time.Duration { return time.Since(processStart) }

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	// traced selects the traced run; spanFile is where its spans go.
	traced   bool
	spanFile string
	// short shrinks every workload to a smoke test (go test).
	short bool
	// updateGolden, when set, is the testdata directory to rewrite.
	updateGolden string
	repeat       int
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// correct is false when an output check (digest, bytes, versions,
	// key counts) failed; failed counts the individual ops that did.
	correct  bool
	samples  int
	notes    []string
	endToEnd map[string]float64
	perLayer map[string]float64
	spans    []span
}

func newOutcome() *outcome {
	return &outcome{correct: true, endToEnd: make(map[string]float64), perLayer: make(map[string]float64)}
}

// note adds a line to the run's human-readable report.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// checkDigest compares the last of a stream's cumulative digests with
// the golden set (or records the stream, under -update-golden).
func (o *outcome) checkDigest(g *goldenSet, stream string, sums []string, opt options) {
	if len(sums) == 0 {
		return
	}
	got := sums[len(sums)-1]
	if g == nil {
		o.note("digest %s after %d ops: %s (a shrunken smoke run: not compared)", stream, len(sums), got)
		return
	}
	if opt.updateGolden != "" {
		g.record(stream, sums)
		o.note("digest %s after %d ops: %s (recorded)", stream, len(sums), got)
		return
	}
	want, ok := g.lookup(stream, len(sums))
	switch {
	case !ok && stream == "canary":
		o.correct = false
		o.note("digest canary after %d ops: %s, but testdata has no canary that long", len(sums), got)
	case !ok:
		o.note("digest %s after %d ops: %s (no golden recorded for this seed and length; canary checked)", stream, len(sums), got)
	case got != want:
		o.correct = false
		o.note("digest %s after %d ops: %s, golden %s: MISMATCH — a simulated statistic changed", stream, len(sums), got, want)
	default:
		o.note("digest %s after %d ops: %s matches golden", stream, len(sums), got)
	}
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line the driver parses.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace string
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with -repeat)")
	fs.Uint64Var(&opt.seed, "seed", 1, "derives every ID, key, value and trial seed")
	fs.IntVar(&opt.seconds, "seconds", 16, "length of the measured phase (fixed-work workloads size their op count from it)")
	fs.StringVar(&trace, "trace", "0", "0: untraced end-to-end run; 1: traced per-layer run; anything else: traced, spans written to that file")
	fs.IntVar(&opt.repeat, "repeat", 0, "run the workload(s) N times as two interleaved sets and compare the sets")
	fs.BoolVar(&opt.short, "short", false, "smoke-test sizes (seconds of work, not a measurement)")
	fs.StringVar(&opt.updateGolden, "update-golden", "", "rewrite the golden digests in this testdata directory instead of comparing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.seconds < 1 || opt.seconds > 60 {
		fmt.Fprintln(stderr, "benchmarks: -seconds must be between 1 and 60")
		return 2
	}
	switch trace {
	case "0":
	case "1":
		opt.traced = true
		opt.spanFile = scratchPath("spans-" + opt.workload + ".jsonl")
	default:
		opt.traced = true
		opt.spanFile = trace
	}
	if opt.repeat > 0 {
		return runRepeat(opt, stdout, stderr)
	}
	if !knownWorkload(opt.workload) {
		fmt.Fprintf(stderr, "benchmarks: unknown workload %q; have %s\n", opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	return runOne(opt, stdout, stderr)
}

// runOne runs one workload and prints its report.
func runOne(opt options, stdout, stderr io.Writer) int {
	printHeader(stdout, opt)
	out, err := dispatch(opt)
	if err != nil {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 1
	}
	if out.failed > 0 {
		out.correct = false
	}
	if opt.traced && opt.spanFile != "" {
		if err := writeSpans(opt.spanFile, out.spans); err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 1
		}
		self, root := selfTimeCheck(out.spans)
		out.note("spans: %d written to %s; self times sum to %v, root spans to %v", len(out.spans), opt.spanFile, self, root)
	}
	if err := printReport(stdout, opt, out); err != nil {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 1
	}
	if !out.correct {
		return 1
	}
	return 0
}

// dispatch runs the named workload.
func dispatch(opt options) (*outcome, error) {
	for _, w := range simWorkloads() {
		if w.name != opt.workload {
			continue
		}
		golden, err := loadGolden(w.name, opt.updateGolden)
		if err != nil {
			return nil, err
		}
		out, err := runSim(w, opt, golden)
		if err == nil && opt.updateGolden != "" {
			err = golden.write(opt.updateGolden)
		}
		return out, err
	}
	for _, w := range netWorkloads() {
		if w.name == opt.workload {
			return runNet(w, opt)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", opt.workload)
}

// workloadNames lists the workloads in catalogue order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

// scratchDir is where the benchmark keeps everything it writes: the
// node data directories and span files. It is inside the checkout (the
// working directory) and named in .gitignore.
const scratchDir = ".bench_build"

func scratchPath(name string) string { return scratchDir + "/" + name }

// printHeader describes the host and the run, so that a number can be
// read for what it is: in particular a run on fewer than two
// processors says so instead of leaving the reader to infer it.
func printHeader(w io.Writer, opt options) {
	mode := "untraced (end-to-end metrics)"
	if opt.traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d mode=%s\n", opt.workload, opt.seed, opt.seconds, mode)
	fmt.Fprintf(w, "# num_cpu=%d GOMAXPROCS=%d go=%s kernel=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(w, "# NOTE: GOMAXPROCS < 2 — this run cannot show multi-core effects; the ring, its clients and the calibration echo share one processor")
	}
	cwd, err := os.Getwd()
	if err != nil {
		cwd = "."
	}
	fmt.Fprintf(w, "# data directory %s/%s on %s; fsync-on-ack is off (NoSync) — device latency is not measured\n", cwd, scratchDir, fsTypeOf(cwd))
	fmt.Fprintln(w, "# times are on the reference host: each slice of work is scaled by nominal/measured calibration-kernel time (raw.* metrics are unscaled)")
}

// unscaledLine is the report line that carries what the host did to the
// run before scaling; the repeatability mode scans it back from its
// children with the same format.
const unscaledLine = "# host.calib_us median %g us (raw calibration-kernel time on this host); unscaled: ops_per_s=%g op_p50_us=%g setup_s=%g\n"

// printReport prints the notes, every metric of the run's mode by
// name, and the result line.
func printReport(w io.Writer, opt options, out *outcome) error {
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	fmt.Fprintf(w, unscaledLine, out.perLayer["host.calib_us"], out.perLayer["raw.ops_per_s"], out.perLayer["raw.op_p50_us"], out.perLayer["raw.setup_s"])
	defs, values := endToEnd, out.endToEnd
	if opt.traced {
		defs, values = perLayer, out.perLayer
	}
	res := jsonResult{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !opt.traced {
			return fmt.Errorf("workload %s did not report end-to-end metric %s", opt.workload, d.name)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-8s n=%d\n", d.name, v, d.unit, out.samples)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "%-34s %16.6g %-8s failed=%d attempted=%d\n", "fail_ratio", float64(out.failed)/float64(max(out.attempted, 1)), "fraction", out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
