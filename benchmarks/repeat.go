package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runRepeat is the repeatability mode: it runs each selected workload
// 2N times in fresh processes, as two interleaved sets (A B A B ...)
// that use the same N seeds, and compares the sets the way the
// benchmark's acceptance rule does — per end-to-end metric, each set's
// median and quartiles, the sets' relative difference, and each set's
// interquartile spread as a share of its median. It exits non-zero
// when a difference or (setup_s aside) a spread exceeds the metric's
// bound.
func runRepeat(opt options, stdout, stderr io.Writer) int {
	names := workloadNames()
	if opt.workload != "all" && opt.workload != "" {
		names = strings.Split(opt.workload, ",")
		for _, n := range names {
			if !knownWorkload(n) {
				fmt.Fprintf(stderr, "benchmarks: unknown workload %q\n", n)
				return 2
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 1
	}
	bad := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*opt.repeat; i++ {
			seed := opt.seed + uint64(i/2)
			res, err := runChild(self, name, seed, opt.seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmarks: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(stderr, "benchmarks: %s seed %d: incorrect run (%d of %d ops failed)\n", name, seed, res.Failed, res.Attempted)
				bad++
			}
			for _, d := range endToEnd {
				sets[i%2][d.name] = append(sets[i%2][d.name], res.Metrics[d.name].Value)
			}
			for _, name := range unscaledNames {
				sets[i%2][name] = append(sets[i%2][name], res.unscaled[name])
			}
		}
		bad += printRepeatTable(stdout, name, opt, sets)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "repeat: %d check(s) outside their bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "repeat: every difference and spread is within its bound")
	return 0
}

// childResult is a child's result line plus the unscaled figures its
// report prints beside the calibration-kernel time.
type childResult struct {
	jsonResult
	unscaled map[string]float64
}

// runChild runs one untraced workload run in a child process and parses
// the result line, the last line of its standard output.
func runChild(self, workload string, seed uint64, seconds int, stderr io.Writer) (*childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := childResult{unscaled: make(map[string]float64)}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.jsonResult); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	for _, line := range lines {
		var v [4]float64
		if n, _ := fmt.Sscanf(line+"\n", unscaledLine, &v[0], &v[1], &v[2], &v[3]); n == len(v) {
			for i, name := range unscaledNames {
				res.unscaled[name] = v[i]
			}
		}
	}
	return &res, nil
}

// unscaledNames are the informational rows of the repeat table, in the
// order unscaledLine prints them: what the host did to the run before
// scaling. They carry no bound.
var unscaledNames = []string{"host.calib_us", "raw.ops_per_s", "raw.op_p50_us", "raw.setup_s"}

// printRepeatTable prints one workload's comparison and returns how
// many checks were outside their bound.
func printRepeatTable(w io.Writer, name string, opt options, sets [2]map[string][]float64) int {
	fmt.Fprintf(w, "\n%s: %d runs a set, seeds %d..%d, %d s\n", name, opt.repeat, opt.seed, opt.seed+uint64(opt.repeat)-1, opt.seconds)
	fmt.Fprintf(w, "%-20s %-6s %36s %36s %8s %8s %8s %6s\n", "metric", "unit",
		"set A median [q1, q3]", "set B median [q1, q3]", "diff", "spreadA", "spreadB", "bound")
	bad := 0
	rows := append([]metricDef(nil), endToEnd...)
	for _, name := range unscaledNames {
		rows = append(rows, metricDef{name: name, unit: "-"})
	}
	for _, d := range rows {
		a, b := sets[0][d.name], sets[1][d.name]
		a1, a2, a3 := quartiles(a)
		b1, b2, b3 := quartiles(b)
		diff := 0.0
		if a2 != 0 {
			diff = (b2 - a2) / math.Abs(a2)
		}
		sa, sb := relSpread(a), relSpread(b)
		verdict := ""
		if d.bound == 0 {
			fmt.Fprintf(w, "%-20s %-6s %36s %36s %+8.4f %8.4f %8.4f %6s\n", d.name, d.unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", a2, a1, a3), fmt.Sprintf("%.6g [%.6g, %.6g]", b2, b1, b3), diff, sa, sb, "-")
			continue
		}
		if math.Abs(diff) > d.bound {
			verdict += " DIFF"
			bad++
		}
		if d.name != "setup_s" && (sa > d.bound || sb > d.bound) {
			verdict += " SPREAD"
			bad++
		}
		fmt.Fprintf(w, "%-20s %-6s %36s %36s %+8.4f %8.4f %8.4f %6.2f%s\n", d.name, d.unit,
			fmt.Sprintf("%.6g [%.6g, %.6g]", a2, a1, a3), fmt.Sprintf("%.6g [%.6g, %.6g]", b2, b1, b3),
			diff, sa, sb, d.bound, verdict)
	}
	return bad
}
