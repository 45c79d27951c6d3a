//go:build soak

package netchord

import (
	"testing"

	"chordbalance/internal/faults"
)

// TestSoakStackedJoinSeeds sweeps the stacked-Sybil-join replay
// (stackedJoinLoss) over seeds 1–100, clean and at 2% frame loss with
// 1% duplication: no seed may lose an acked chunk. It runs in make soak,
// since a hundred lockstep rings per plan take minutes, not seconds.
func TestSoakStackedJoinSeeds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		drop, dup float64
	}{{"clean", 0, 0}, {"drop2-dup1", 0.02, 0.01}} {
		failed, lost := 0, 0
		for seed := uint64(1); seed <= 100; seed++ {
			n := stackedJoinLoss(t, seed, faults.Plan{Seed: seed, DropRate: tc.drop, DupRate: tc.dup}, false)
			if n > 0 {
				failed++
				lost += n
				t.Errorf("%s: seed %d lost %d acked chunks", tc.name, seed, n)
			}
		}
		t.Logf("%s: %d of 100 seeds lost %d acked chunks", tc.name, failed, lost)
	}
}
