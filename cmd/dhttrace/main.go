// Command dhttrace analyzes the per-tick JSONL traces written by
// dhtsim/dhtsweep -trace (docs/OBSERVABILITY.md):
//
//	dhttrace summary run.jsonl              # meta, run shape, key signals
//	dhttrace metrics run.jsonl              # the metric catalog
//	dhttrace series -m sim.workload.max run.jsonl
//	dhttrace hist -t 0,5,35 run.jsonl       # the paper's histogram figure
//	dhttrace hist -t 35 a.jsonl b.jsonl     # side-by-side comparison
//	dhttrace diff a.jsonl b.jsonl           # tick-by-tick comparison
//
// diff exits non-zero on the first divergence, so CI can assert that two
// same-seed runs traced byte-identically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"chordbalance/internal/obs"
	"chordbalance/internal/report"
	"chordbalance/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dhttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dhttrace summary|metrics|series|hist|diff [flags] <trace.jsonl> [...]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		return cmdSummary(rest, out)
	case "metrics":
		return cmdMetrics(rest, out)
	case "series":
		return cmdSeries(rest, out)
	case "hist":
		return cmdHist(rest, out)
	case "diff":
		return cmdDiff(rest, out)
	}
	return fmt.Errorf("unknown subcommand %q (want summary, metrics, series, hist, or diff)", cmd)
}

// load reads and decodes one trace file.
func load(path string) (*obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := obs.ReadTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// sortedKeys returns a map's keys in sorted order, so every dhttrace
// view is byte-identical run to run.
func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fmtAny renders one decoded JSON value compactly (JSON numbers decode
// as float64; render integral ones without the trailing .0).
func fmtAny(v any) string {
	if f, ok := v.(float64); ok {
		if f == float64(int64(f)) {
			return strconv.FormatInt(int64(f), 10)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

func cmdSummary(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhttrace summary", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dhttrace summary <trace.jsonl>")
	}
	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(tr.Meta) {
		fmt.Fprintf(out, "meta %-14s %s\n", k, fmtAny(tr.Meta[k]))
	}
	fmt.Fprintf(out, "tick records   %d", len(tr.Ticks))
	if n := len(tr.Ticks); n > 0 {
		fmt.Fprintf(out, " (ticks %d..%d)", tr.Ticks[0].Tick, tr.Ticks[n-1].Tick)
	}
	fmt.Fprintf(out, "\nmetrics        %d\n", len(tr.MetricNames()))
	// Key signals: the paper's imbalance view, when present.
	for _, name := range []string{"sim.workload.max", "sim.workload.imbalance", "sim.workload.gini", "sim.hosts.idle"} {
		_, vals := tr.Series(name)
		if len(vals) == 0 {
			continue
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(out, "signal %-24s first=%s last=%s min=%s max=%s\n",
			name, fmtAny(vals[0]), fmtAny(vals[len(vals)-1]), fmtAny(lo), fmtAny(hi))
	}
	for _, k := range sortedKeys(tr.Done) {
		fmt.Fprintf(out, "done %-14s %s\n", k, fmtAny(tr.Done[k]))
	}
	return nil
}

func cmdMetrics(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhttrace metrics", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dhttrace metrics <trace.jsonl>")
	}
	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	t := report.NewTable("", "metric", "type", "unit", "help")
	inCatalog := make(map[string]bool, len(tr.Schema))
	for _, d := range tr.Schema {
		inCatalog[d.Name] = true
		t.AddRow(d.Name, d.Type, d.Unit, d.Help)
	}
	// Metrics that appeared after the schema record (e.g. per-strategy
	// counters registered at the first decision pass) still carry values.
	for _, name := range tr.MetricNames() {
		if !inCatalog[name] {
			t.AddRow(name, "-", "-", "(registered after the schema record)")
		}
	}
	return t.Render(out)
}

func cmdSeries(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhttrace series", flag.ContinueOnError)
	metrics := fs.String("m", "", "comma-separated metric names (default: all)")
	width := fs.Int("w", 60, "sparkline width in glyphs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dhttrace series [-m names] [-w width] <trace.jsonl>")
	}
	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	names := tr.MetricNames()
	if *metrics != "" {
		names = strings.Split(*metrics, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		_, vals := tr.Series(name)
		if len(vals) == 0 {
			if *metrics != "" {
				return fmt.Errorf("no series for metric %q (histograms need `dhttrace hist`; see `dhttrace metrics`)", name)
			}
			continue // histograms have no scalar series
		}
		fmt.Fprintln(out, report.SparklineRow(name, vals, *width))
	}
	return nil
}

// histAt reconstructs a stats.Histogram from one trace histogram at one
// tick, using the catalog's bucket edges. The obs bucket layout is
// [ <edges[0], [edges[i-1],edges[i]) ..., >=edges[last] ], which maps
// onto stats.Histogram's ZeroCount / Counts / OverCount exactly — so
// `dhttrace hist` renders the same figure dhtsim -snapshots prints.
func histAt(tr *obs.Trace, metric string, tick int) (*stats.Histogram, error) {
	def, ok := tr.Def(metric)
	if !ok || def.Type != "hist" {
		return nil, fmt.Errorf("metric %q is not a histogram in the trace catalog", metric)
	}
	buckets, ok := tr.HistAt(metric, tick)
	if !ok {
		return nil, fmt.Errorf("no record for tick %d", tick)
	}
	if len(buckets) != len(def.Edges)+1 {
		return nil, fmt.Errorf("tick %d: %d buckets for %d edges", tick, len(buckets), len(def.Edges))
	}
	h := &stats.Histogram{
		Edges:     def.Edges,
		Counts:    make([]int, len(def.Edges)-1),
		ZeroCount: int(buckets[0]),
		OverCount: int(buckets[len(buckets)-1]),
	}
	for i := range h.Counts {
		h.Counts[i] = int(buckets[i+1])
	}
	return h, nil
}

func cmdHist(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhttrace hist", flag.ContinueOnError)
	metric := fs.String("m", "sim.workload.hosts", "histogram metric name")
	ticks := fs.String("t", "", "comma-separated ticks (default: first and last)")
	width := fs.Int("w", 40, "bar width in characters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 && fs.NArg() != 2 {
		return fmt.Errorf("usage: dhttrace hist [-m metric] [-t ticks] <trace.jsonl> [other.jsonl]")
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	var b *obs.Trace
	if fs.NArg() == 2 {
		if b, err = load(fs.Arg(1)); err != nil {
			return err
		}
	}
	var at []int
	if *ticks == "" {
		if len(a.Ticks) == 0 {
			return fmt.Errorf("%s contains no tick records", fs.Arg(0))
		}
		at = []int{a.Ticks[0].Tick}
		if last := a.Ticks[len(a.Ticks)-1].Tick; last != at[0] {
			at = append(at, last)
		}
	} else {
		for _, p := range strings.Split(*ticks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad tick %q", p)
			}
			at = append(at, n)
		}
	}
	for _, tick := range at {
		ha, err := histAt(a, *metric, tick)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "-- %s at tick %d --\n", *metric, tick)
		if b == nil {
			fmt.Fprint(out, ha.ASCII(*width))
			continue
		}
		hb, err := histAt(b, *metric, tick)
		if err != nil {
			return err
		}
		la := filepath.Base(fs.Arg(0))
		lb := filepath.Base(fs.Arg(1))
		if err := report.HistogramPair(out, la, ha, lb, hb, *width); err != nil {
			return err
		}
	}
	return nil
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dhttrace diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: dhttrace diff <a.jsonl> <b.jsonl>")
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := diffTraces(a, b); err != nil {
		return err
	}
	fmt.Fprintf(out, "traces identical: %d tick records, %d metrics\n",
		len(a.Ticks), len(a.MetricNames()))
	return nil
}

// diffTraces compares two decoded traces tick by tick and returns a
// description of the first divergence, or nil when they match. Metadata
// differences (e.g. seed) are reported before any value difference.
func diffTraces(a, b *obs.Trace) error {
	for _, k := range sortedKeys(a.Meta) {
		if va, vb := fmtAny(a.Meta[k]), fmtAny(b.Meta[k]); va != vb {
			return fmt.Errorf("meta %q differs: %s vs %s", k, va, vb)
		}
	}
	for _, k := range sortedKeys(b.Meta) {
		if _, ok := a.Meta[k]; !ok {
			return fmt.Errorf("meta %q only in second trace", k)
		}
	}
	if len(a.Ticks) != len(b.Ticks) {
		return fmt.Errorf("tick record counts differ: %d vs %d", len(a.Ticks), len(b.Ticks))
	}
	for i := range a.Ticks {
		ta, tb := a.Ticks[i], b.Ticks[i]
		if ta.Tick != tb.Tick {
			return fmt.Errorf("record %d: tick %d vs %d", i, ta.Tick, tb.Tick)
		}
		if err := diffScalar(ta.Tick, "counter", countersAsFloats(ta.Counters), countersAsFloats(tb.Counters)); err != nil {
			return err
		}
		if err := diffScalar(ta.Tick, "gauge", ta.Gauges, tb.Gauges); err != nil {
			return err
		}
		if err := diffHists(ta.Tick, ta.Hists, tb.Hists); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(a.Done) {
		if va, vb := fmtAny(a.Done[k]), fmtAny(b.Done[k]); va != vb {
			return fmt.Errorf("done %q differs: %s vs %s", k, va, vb)
		}
	}
	return nil
}

func countersAsFloats(m map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

// diffScalar compares one tick's scalar metrics of one kind, iterating
// names in sorted order so the reported first divergence is stable.
func diffScalar(tick int, kind string, a, b map[string]float64) error {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		va, oka := a[name]
		vb, okb := b[name]
		if oka != okb {
			return fmt.Errorf("tick %d: %s %q present in only one trace", tick, kind, name)
		}
		if va != vb {
			return fmt.Errorf("tick %d: %s %q differs: %s vs %s", tick, kind, name, fmtAny(va), fmtAny(vb))
		}
	}
	return nil
}

func diffHists(tick int, a, b map[string][]int64) error {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ha, oka := a[name]
		hb, okb := b[name]
		if oka != okb {
			return fmt.Errorf("tick %d: histogram %q present in only one trace", tick, name)
		}
		if len(ha) != len(hb) {
			return fmt.Errorf("tick %d: histogram %q bucket counts differ: %d vs %d", tick, name, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i] != hb[i] {
				return fmt.Errorf("tick %d: histogram %q bucket %d differs: %d vs %d", tick, name, i, ha[i], hb[i])
			}
		}
	}
	return nil
}
