package sim_test

import (
	"fmt"
	"log"

	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

// Example runs the paper's headline comparison: a 500-node network
// working through 50,000 tasks (100 ticks at perfect balance), with and
// without random Sybil injection. README's quickstart shows this output.
func Example() {
	base := sim.Config{Nodes: 500, Tasks: 50000, Seed: 42}
	baseline, err := sim.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	base.Strategy = strategy.NewRandomInjection()
	balanced, err := sim.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ideal runtime:      %d ticks\n", baseline.IdealTicks)
	fmt.Printf("no strategy:        %d ticks (factor %.2f)\n",
		baseline.Ticks, baseline.RuntimeFactor)
	fmt.Printf("random injection:   %d ticks (factor %.2f, %d Sybils created)\n",
		balanced.Ticks, balanced.RuntimeFactor,
		balanced.Messages.SybilsCreated)
	fmt.Printf("speedup:            %.1fx\n",
		float64(baseline.Ticks)/float64(balanced.Ticks))
	// Output:
	// ideal runtime:      100 ticks
	// no strategy:        698 ticks (factor 6.98)
	// random injection:   184 ticks (factor 1.84, 8702 Sybils created)
	// speedup:            3.8x
}

// ExampleRun_snapshots captures the workload distribution at the ticks
// the paper's figures use.
func ExampleRun_snapshots() {
	res, err := sim.Run(sim.Config{
		Nodes: 50, Tasks: 5000, Seed: 3,
		SnapshotTicks: []int{0, 35},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, snap := range res.Snapshots {
		total := 0
		for _, w := range snap.HostWorkloads {
			total += w
		}
		fmt.Printf("tick %d: %d hosts, %d tasks remaining\n",
			snap.Tick, snap.AliveHosts, total)
	}
	// Output:
	// tick 0: 50 hosts, 5000 tasks remaining
	// tick 35: 50 hosts, 3523 tasks remaining
}
