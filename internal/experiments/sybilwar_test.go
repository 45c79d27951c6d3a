package experiments

import "testing"

// TestSybilwarHeadlineContrast pins the experiment's headline shape at
// the common probe tick: undefended attack cells achieve nonzero
// eclipse success, the pinned detection threshold achieves strictly
// less, and honest cells report no eclipse at all. It also pins the
// stall contrast: an undefended eclipse blackholes keys and runs into
// the tick cap, while detection recovers them and the job completes.
func TestSybilwarHeadlineContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep grid in -short mode")
	}
	cells, err := Sybilwar(Options{Trials: 2, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]SybilwarCell, len(cells))
	for _, c := range cells {
		byName[c.Name] = c
		if c.Budget == 0 && (c.Eclipse.Mean != 0 || c.EclipseProbe.Mean != 0) {
			t.Errorf("%s: eclipse %.3f/%.3f with no attacker", c.Name, c.EclipseProbe.Mean, c.Eclipse.Mean)
		}
	}
	undef, ok := byName["budget=24 puzzle=0 thr=off"]
	if !ok {
		t.Fatal("undefended attack cell missing from grid")
	}
	if undef.EclipseProbe.Mean <= 0 {
		t.Fatalf("undefended attack achieved no eclipse at the probe tick: %+v", undef.EclipseProbe)
	}
	if undef.Completed != 0 {
		t.Errorf("undefended eclipse should blackhole keys and stall, but %d/%d trials completed",
			undef.Completed, undef.Trials)
	}
	detect, ok := byName["budget=24 puzzle=0 thr=4"]
	if !ok {
		t.Fatal("detection cell missing from grid")
	}
	if detect.Completed != detect.Trials {
		t.Errorf("detection should recover blackholed keys, but only %d/%d trials completed",
			detect.Completed, detect.Trials)
	}
	strict, ok := byName["budget=24 puzzle=8 thr=4"]
	if !ok {
		t.Fatal("attack-defeating cell missing from grid")
	}
	if strict.EclipseProbe.Mean >= undef.EclipseProbe.Mean {
		t.Errorf("attack-defeating dose did not reduce probe-tick eclipse: defended %.3f >= undefended %.3f",
			strict.EclipseProbe.Mean, undef.EclipseProbe.Mean)
	}
}
