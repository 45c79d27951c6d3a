package main

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// goldenFiles holds the committed digests of the simulator workloads'
// outputs, one file per workload.
//
//go:embed testdata/*.golden
var goldenFiles embed.FS

// goldenSet is one workload's golden digests. A stream ("canary", or
// "seed-<n>") maps to the cumulative digest after each op, so a run of
// any length up to the recorded one can be compared.
type goldenSet struct {
	workload string
	streams  map[string][]string
}

// loadGolden parses a workload's golden file — the embedded one, or
// under -update-golden the one in updateDir, so that recording one seed
// keeps what earlier runs recorded for the others. A workload with no
// file yet gets an empty set.
func loadGolden(workload, updateDir string) (*goldenSet, error) {
	g := &goldenSet{workload: workload, streams: make(map[string][]string)}
	var f io.ReadCloser
	var err error
	if updateDir != "" {
		f, err = os.Open(filepath.Join(updateDir, workload+".golden"))
	} else {
		f, err = goldenFiles.Open("testdata/" + workload + ".golden")
	}
	if err != nil {
		return g, nil // no goldens recorded for this workload
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// "<stream> <ops> <digest>", ops counting up from 1 per stream
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s.golden:%d: want 3 fields, got %d", workload, line, len(fields))
		}
		ops, err := strconv.Atoi(fields[1])
		if err != nil || ops != len(g.streams[fields[0]])+1 {
			return nil, fmt.Errorf("%s.golden:%d: op counts must run 1, 2, 3...", workload, line)
		}
		g.streams[fields[0]] = append(g.streams[fields[0]], fields[2])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s.golden: %w", workload, err)
	}
	return g, nil
}

// lookup returns the recorded digest of stream after ops ops.
func (g *goldenSet) lookup(stream string, ops int) (string, bool) {
	sums := g.streams[stream]
	if ops < 1 || ops > len(sums) {
		return "", false
	}
	return sums[ops-1], true
}

// record replaces stream's digests.
func (g *goldenSet) record(stream string, sums []string) {
	g.streams[stream] = append([]string(nil), sums...)
}

// write saves the set as dir/<workload>.golden, streams in sorted order.
func (g *goldenSet) write(dir string) error {
	names := make([]string, 0, len(g.streams))
	for name := range g.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: cumulative SHA-256 digests (first 8 bytes) of every trial's Ticks, Completed,\n", g.workload)
	b.WriteString("# RuntimeFactor, Messages and FinalVNodes after 1, 2, 3... ops; \"canary\" is the\n")
	b.WriteString("# seed-independent warm-up. Regenerate with -seconds 60 -update-golden benchmarks/testdata,\n")
	b.WriteString("# and only when a change is meant to alter simulated statistics.\n")
	for _, name := range names {
		for i, sum := range g.streams[name] {
			fmt.Fprintf(&b, "%s %d %s\n", name, i+1, sum)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, g.workload+".golden"), []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return nil
}
