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

// BenchmarkRun measures the tick loop alone on each configuration of
// the repository benchmark's sim-paper-1k round: 1000 hosts and 100k
// tasks, one trial per iteration, with New (ring build and task
// seeding) outside the timer. ns/tick divides the timed runs by the
// ticks they took.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		name, strategy string
		churn          float64
	}{
		{"none", "none", 0},
		{"churn", "none", 0.01},
		{"random", "random", 0},
		{"neighbor", "neighbor", 0},
		{"invitation", "invitation", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			ticks := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := benchConfig(b, c.strategy, uint64(i)+1)
				cfg.Tasks = 100_000
				cfg.ChurnRate = c.churn
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				ticks += s.Run().Ticks
			}
			if ticks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
			}
		})
	}
}
