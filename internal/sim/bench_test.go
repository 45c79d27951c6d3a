package sim_test

// BenchmarkSimTick measures whole-engine per-tick cost on a mid-size
// churn workload — the Table II churn shape, scaled down so `go test
// -bench` stays quick. Each iteration is a complete run (construction
// included, amortized over its ticks). It is a local probe; the
// repository's calibrated measurement is benchmarks/ (benchmarks/README.md).

import (
	"testing"

	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

func benchConfig(tb testing.TB, name string, seed uint64) sim.Config {
	tb.Helper()
	st, ok := strategy.ByName(name)
	if !ok {
		tb.Fatalf("unknown strategy %q", name)
	}
	return sim.Config{
		Nodes:     1000,
		Tasks:     10_000,
		Strategy:  st,
		ChurnRate: 0.01,
		Seed:      seed,
	}
}

func BenchmarkSimTick(b *testing.B) {
	for _, name := range []string{"none", "random", "neighbor"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			totalTicks := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Vary the seed so the benchmark averages over runs
				// instead of re-measuring one trajectory.
				res, err := sim.Run(benchConfig(b, name, uint64(i)+1))
				if err != nil {
					b.Fatal(err)
				}
				totalTicks += res.Ticks
			}
			b.StopTimer()
			if totalTicks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalTicks), "ns/tick")
			}
		})
	}
}
