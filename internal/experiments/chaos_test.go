package experiments

import "testing"

// TestChaosReplicationContrast pins the experiment's headline contrast:
// replicated cells lose nothing, unreplicated cells lose keys.
func TestChaosReplicationContrast(t *testing.T) {
	cells, err := Chaos(Options{Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Replicas >= 0 && c.KeysLost.Mean != 0 {
			t.Errorf("%s: replicated cell lost %.1f keys", c.Name, c.KeysLost.Mean)
		}
		if c.Replicas < 0 && c.KeysLost.Mean == 0 {
			t.Errorf("%s: unreplicated cell lost no keys", c.Name)
		}
		if c.Completed != c.Trials {
			t.Errorf("%s: only %d/%d trials completed", c.Name, c.Completed, c.Trials)
		}
	}
}
