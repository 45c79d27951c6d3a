package experiments

import (
	"fmt"
	"testing"

	"chordbalance/internal/report"
	"chordbalance/internal/sim"
)

// TestWorkersInvariance runs every kind of experiment on the trial
// runner on one worker and on three, and demands identical results:
// a trial's seed, and so its result, must not depend on the goroutine
// that ran it, and every fold must see the trials in index order. Cells
// render with %#v, which prints every float exactly.
func TestWorkersInvariance(t *testing.T) {
	tableString := func(t *report.Table, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}
	for _, c := range []struct {
		name string
		long bool // skipped in -short mode
		run  func(Options) (string, error)
	}{
		{"summary", false, func(o Options) (string, error) {
			cells, err := runSummary([]SummaryCell{
				{Name: "baseline", Cell: Cell{Config: sim.Config{Nodes: 50, Tasks: 2500, ChurnRate: 0.02}}},
				{Name: "random", Cell: Cell{Strategy: "random", Config: sim.Config{Nodes: 50, Tasks: 2500}}},
			}, o)
			return fmt.Sprintf("%#v", cells), err
		}},
		{"chaos", false, func(o Options) (string, error) {
			cells, err := Chaos(o)
			return fmt.Sprintf("%#v", cells), err
		}},
		{"sybilwar", true, func(o Options) (string, error) {
			cells, err := Sybilwar(o)
			return fmt.Sprintf("%#v", cells), err
		}},
		{"figure", false, func(o Options) (string, error) {
			r, err := RunWorkloadFigure(Figures[5], o)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %v idle=%d/%d max=%d/%d alive=%d/%d",
				r.HistA.Fractions(), r.HistB.Fractions(), r.IdleA, r.IdleB,
				r.MaxA, r.MaxB, r.AliveA, r.AliveB), nil
		}},
		{"work-series", false, func(o Options) (string, error) { return tableString(WorkSeries(10, o)) }},
		{"traffic", true, func(o Options) (string, error) { return tableString(Traffic(o)) }},
		{"strength-share", true, func(o Options) (string, error) { return tableString(StrengthShare(o)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("long or 1000-node cells in -short mode")
			}
			var got [2]string
			for i, workers := range []int{1, 3} {
				s, err := c.run(Options{Trials: 2, Seed: 11, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got[i] = s
			}
			if got[0] == "" {
				t.Fatal("experiment reported nothing")
			}
			if got[0] != got[1] {
				t.Errorf("1 and 3 workers differ:\n%s\n%s", got[0], got[1])
			}
		})
	}
}
