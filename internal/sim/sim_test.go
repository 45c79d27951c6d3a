package sim

import (
	"math"
	"testing"
	"testing/quick"

	"chordbalance/internal/keys"
	"chordbalance/internal/ring"
	"chordbalance/internal/strategy"
)

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0, Tasks: 10},
		{Nodes: 10, Tasks: -1},
		{Nodes: 10, Tasks: 10, ChurnRate: -0.1},
		{Nodes: 10, Tasks: 10, ChurnRate: 1.5},
		{Nodes: 10, Tasks: 10, MaxSybils: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d must be rejected", i)
		}
	}
}

func TestBaselineCompletesExactly(t *testing.T) {
	// No churn, no strategy: the runtime is exactly the maximum initial
	// workload, and all work completes.
	s, err := New(Config{Nodes: 50, Tasks: 5000, Seed: 3, CheckInvariants: true,
		SnapshotTicks: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Completed {
		t.Fatal("baseline did not complete")
	}
	maxLoad := 0
	for _, w := range res.Snapshots[0].HostWorkloads {
		if w > maxLoad {
			maxLoad = w
		}
	}
	if res.Ticks != maxLoad {
		t.Errorf("ticks = %d, want max initial workload %d", res.Ticks, maxLoad)
	}
	if res.IdealTicks != 100 {
		t.Errorf("ideal = %d, want 5000/50", res.IdealTicks)
	}
	if res.RuntimeFactor != float64(res.Ticks)/100 {
		t.Errorf("factor = %v", res.RuntimeFactor)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Nodes: 100, Tasks: 5000, ChurnRate: 0.01, Seed: 7,
		Strategy: strategy.NewRandomInjection()}
	a := run(t, cfg)
	cfg.Strategy = strategy.NewRandomInjection() // fresh instance
	b := run(t, cfg)
	if a.Ticks != b.Ticks || a.Messages.SybilsCreated != b.Messages.SybilsCreated ||
		a.Messages.Joins != b.Messages.Joins {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	cfg.Seed = 8
	cfg.Strategy = strategy.NewRandomInjection()
	c := run(t, cfg)
	if a.Ticks == c.Ticks && a.Messages.Joins == c.Messages.Joins {
		t.Log("different seeds produced identical outcome (possible but suspicious)")
	}
}

func TestWorkConservation(t *testing.T) {
	cfg := Config{Nodes: 100, Tasks: 20000, ChurnRate: 0.02, Seed: 5,
		Strategy: strategy.NewRandomInjection(), RecordWorkPerTick: true,
		CheckInvariants: true}
	res := run(t, cfg)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	total := 0
	for _, w := range res.WorkPerTick {
		if w < 0 {
			t.Fatal("negative per-tick work")
		}
		total += w
	}
	if total != cfg.Tasks {
		t.Errorf("work done = %d, want %d", total, cfg.Tasks)
	}
	if len(res.WorkPerTick) != res.Ticks {
		t.Errorf("series length %d != ticks %d", len(res.WorkPerTick), res.Ticks)
	}
}

func TestWorkConservationProperty(t *testing.T) {
	f := func(seed uint64, strChoice uint8) bool {
		strats := []strategy.Strategy{
			strategy.NewNone(), strategy.NewRandomInjection(),
			strategy.NewNeighborInjection(), strategy.NewSmartNeighbor(),
			strategy.NewInvitation(),
		}
		cfg := Config{
			Nodes: 30, Tasks: 2000, Seed: seed, ChurnRate: 0.01,
			Strategy: strats[int(strChoice)%len(strats)], RecordWorkPerTick: true,
			CheckInvariants: true,
		}
		res, err := Run(cfg)
		if err != nil || !res.Completed {
			return false
		}
		total := 0
		for _, w := range res.WorkPerTick {
			total += w
		}
		return total == cfg.Tasks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestChurnSpeedsUpLargeJobs(t *testing.T) {
	// Table II's core claim: churn lowers the runtime factor; more tasks,
	// bigger gain. A couple of seeds guard against one-off flukes.
	var base, churned float64
	for seed := uint64(0); seed < 3; seed++ {
		b := run(t, Config{Nodes: 100, Tasks: 100000, Seed: seed})
		c := run(t, Config{Nodes: 100, Tasks: 100000, ChurnRate: 0.01, Seed: seed})
		base += b.RuntimeFactor
		churned += c.RuntimeFactor
	}
	if churned >= base {
		t.Errorf("churn made things worse: base %.3f, churned %.3f", base/3, churned/3)
	}
	if churned/3 > 2.5 {
		t.Errorf("churned factor %.3f, paper reports ~1.87", churned/3)
	}
}

func TestRandomInjectionApproachesIdeal(t *testing.T) {
	res := run(t, Config{Nodes: 200, Tasks: 20000, Seed: 11,
		Strategy: strategy.NewRandomInjection()})
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.RuntimeFactor > 2.2 {
		t.Errorf("random injection factor = %.3f, paper reports <= 1.7", res.RuntimeFactor)
	}
	if res.Messages.SybilsCreated == 0 {
		t.Error("random injection never created a Sybil")
	}
}

func TestStrategyOrdering(t *testing.T) {
	// The paper's headline ordering on the 1000-node/100k-task network,
	// scaled down 5x for test speed: random < neighbor-family < none.
	factors := map[string]float64{}
	for _, s := range []strategy.Strategy{
		strategy.NewNone(), strategy.NewRandomInjection(),
		strategy.NewSmartNeighbor(),
	} {
		var sum float64
		for seed := uint64(0); seed < 3; seed++ {
			cfg := Config{Nodes: 200, Tasks: 20000, Seed: seed}
			st, _ := strategy.ByName(s.Name())
			cfg.Strategy = st
			sum += run(t, cfg).RuntimeFactor
		}
		factors[s.Name()] = sum / 3
	}
	if !(factors["random"] < factors["smart-neighbor"] &&
		factors["smart-neighbor"] < factors["none"]) {
		t.Errorf("ordering violated: %v", factors)
	}
}

// TestBaselineFollowsExtremeValueLaw ties the simulator to the math
// behind Table II's no-strategy column: the factor is the max of n
// exponential workloads over their mean, which concentrates at ln n + γ.
func TestBaselineFollowsExtremeValueLaw(t *testing.T) {
	for _, n := range []int{100, 400} {
		var sum float64
		const trials = 6
		for seed := uint64(0); seed < trials; seed++ {
			res := run(t, Config{Nodes: n, Tasks: n * 100, Seed: seed})
			sum += res.RuntimeFactor
		}
		mean := sum / trials
		want := keys.ExpectedMaxToMean(n)
		if mean < want*0.8 || mean > want*1.25 {
			t.Errorf("n=%d: mean factor %.2f, extreme-value law predicts %.2f",
				n, mean, want)
		}
	}
}

func TestSnapshots(t *testing.T) {
	cfg := Config{Nodes: 100, Tasks: 10000, Seed: 13,
		Strategy:      strategy.NewRandomInjection(),
		SnapshotTicks: []int{0, 5, 35}}
	res := run(t, cfg)
	if len(res.Snapshots) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(res.Snapshots))
	}
	s0 := res.Snapshots[0]
	if s0.Tick != 0 || s0.AliveHosts != 100 || len(s0.HostWorkloads) != 100 {
		t.Errorf("tick-0 snapshot: %+v", s0)
	}
	total := 0
	for _, w := range s0.HostWorkloads {
		total += w
	}
	if total != cfg.Tasks {
		t.Errorf("tick-0 workloads sum to %d, want %d", total, cfg.Tasks)
	}
	// At tick 5 one decision pass has run: Sybils exist, so vnodes >= hosts.
	s5 := res.Snapshots[1]
	if s5.Tick != 5 || s5.VNodes < s5.AliveHosts {
		t.Errorf("tick-5 snapshot: %+v", s5)
	}
	// Remaining work shrinks monotonically across snapshots.
	prev := total
	for _, s := range res.Snapshots[1:] {
		cur := 0
		for _, w := range s.HostWorkloads {
			cur += w
		}
		if cur > prev {
			t.Errorf("remaining work grew: %d -> %d at tick %d", prev, cur, s.Tick)
		}
		prev = cur
	}
}

func TestHeterogeneousStrengthConsumption(t *testing.T) {
	// With WorkByStrength the ideal shrinks (total strength > nodes), and
	// the run still completes.
	cfg := Config{Nodes: 100, Tasks: 30000, Seed: 17, Heterogeneous: true,
		WorkByStrength: true, Strategy: strategy.NewRandomInjection()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.IdealTicks() >= 300 {
		t.Errorf("heterogeneous ideal = %d, must be < tasks/nodes = 300", s.IdealTicks())
	}
	res := s.Run()
	if !res.Completed {
		t.Error("heterogeneous run did not complete")
	}
}

func TestHeterogeneousWithoutStrengthConsumption(t *testing.T) {
	cfg := Config{Nodes: 50, Tasks: 5000, Seed: 19, Heterogeneous: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.IdealTicks() != 100 {
		t.Errorf("single-task mode ideal = %d, want 100", s.IdealTicks())
	}
}

func TestChurnAccounting(t *testing.T) {
	res := run(t, Config{Nodes: 100, Tasks: 10000, ChurnRate: 0.05, Seed: 23})
	if res.Messages.Joins == 0 || res.Messages.Leaves == 0 {
		t.Errorf("churn produced no turnover: %+v", res.Messages)
	}
	if res.Messages.LookupMessages == 0 {
		t.Error("joins must cost lookup messages")
	}
	if res.Messages.Maintenance == 0 {
		t.Error("maintenance messages must accumulate")
	}
}

func TestInvitationDefaultThreshold(t *testing.T) {
	s, err := New(Config{Nodes: 100, Tasks: 10000, Seed: 29,
		Strategy: strategy.NewInvitation()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Params().InviteThreshold; got != 200 {
		t.Errorf("derived invite threshold = %d, want 2*(10000/100) = 200", got)
	}
	s2, err := New(Config{Nodes: 100, Tasks: 10000, Seed: 29, InviteThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Params().InviteThreshold; got != 0 {
		t.Errorf("negative config must mean literal zero, got %d", got)
	}
	s3, err := New(Config{Nodes: 100, Tasks: 10000, Seed: 29, InviteThreshold: 55})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Params().InviteThreshold; got != 55 {
		t.Errorf("explicit threshold lost: %d", got)
	}
}

func TestMaxTicksAborts(t *testing.T) {
	// A 1-node network with churn disabled and plenty of tasks, capped
	// far below the needed runtime.
	res := run(t, Config{Nodes: 1, Tasks: 1000, MaxTicks: 10, Seed: 31})
	if res.Completed {
		t.Fatal("must not complete in 10 ticks")
	}
	if res.Ticks != 10 {
		t.Errorf("ticks = %d, want 10", res.Ticks)
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	res := run(t, Config{Nodes: 1, Tasks: 100, Seed: 37})
	if !res.Completed || res.Ticks != 100 {
		t.Errorf("single node: ticks = %d, want 100", res.Ticks)
	}
	if res.RuntimeFactor != 1 {
		t.Errorf("single node factor = %v, want exactly 1", res.RuntimeFactor)
	}
}

func TestZeroTasks(t *testing.T) {
	res := run(t, Config{Nodes: 10, Tasks: 0, Seed: 41})
	if !res.Completed || res.Ticks != 0 {
		t.Errorf("zero tasks: %+v", res)
	}
}

func TestConsumeModePlumbs(t *testing.T) {
	// Alternate consumption must produce a different (typically faster)
	// neighbor-injection run than front consumption.
	base := Config{Nodes: 200, Tasks: 20000, Seed: 43}
	front := base
	front.Strategy = strategy.NewNeighborInjection()
	fr := run(t, front)
	alt := base
	alt.Strategy = strategy.NewNeighborInjection()
	alt.ConsumeMode = ring.ConsumeAlternate
	ar := run(t, alt)
	if fr.Ticks == ar.Ticks {
		t.Logf("front and alternate coincided (ticks=%d); unusual but not fatal", fr.Ticks)
	}
	if !fr.Completed || !ar.Completed {
		t.Error("both modes must complete")
	}
}

func TestSybilCapRespected(t *testing.T) {
	cfg := Config{Nodes: 50, Tasks: 10000, Seed: 47, MaxSybils: 2,
		Strategy: strategy.NewRandomInjection(), SnapshotTicks: []int{35}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	// No snapshot can show more vnodes than hosts*(1+cap).
	for _, snap := range res.Snapshots {
		if snap.VNodes > snap.AliveHosts*3 {
			t.Errorf("tick %d: %d vnodes for %d hosts exceeds cap",
				snap.Tick, snap.VNodes, snap.AliveHosts)
		}
	}
}

func TestMessageTotals(t *testing.T) {
	res := run(t, Config{Nodes: 100, Tasks: 10000, Seed: 53,
		Strategy: strategy.NewSmartNeighbor()})
	m := res.Messages
	if m.Strategy["workload-query"] == 0 {
		t.Error("smart neighbor must charge workload queries")
	}
	if m.Total() < m.Strategy["workload-query"] {
		t.Error("Total must include strategy messages")
	}
}

func BenchmarkTickBaseline(b *testing.B) {
	// Cost of one full run of the paper's reference network, reduced 10x.
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Nodes: 100, Tasks: 10000, Seed: uint64(i)})
		if err != nil || !res.Completed {
			b.Fatal("run failed")
		}
	}
}

func BenchmarkTickRandomInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Nodes: 100, Tasks: 10000, Seed: uint64(i),
			Strategy: strategy.NewRandomInjection()})
		if err != nil || !res.Completed {
			b.Fatal("run failed")
		}
	}
}

// TestLookupChargeMatchesLog2 pins the integer lookup charge to the
// float formula it replaced, ⌈log2 n⌉, for every ring size from 2 to
// 2^22.
func TestLookupChargeMatchesLog2(t *testing.T) {
	for n := 2; n <= 1<<22; n++ {
		if got, want := lookupHops(n), int(math.Ceil(math.Log2(float64(n)))); got != want {
			t.Fatalf("lookupHops(%d) = %d, want ⌈log2 n⌉ = %d", n, got, want)
		}
	}
}
