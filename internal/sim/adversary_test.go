package sim_test

// Determinism-under-attack tests: the adversary/defense co-simulation
// must hold the same contracts as the honest engine — same seed, same
// bytes — and the zero configs must be provably inert (the pre-adversary
// goldens in determinism_test.go are the referee for that). The
// sybilwar golden matrix here pins the hostile code paths: attack alone,
// attack versus each defense, and the defenses running against a purely
// honest network.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chordbalance/internal/adversary"
	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

// advSummary extends fullSummary with every adversary-facing field, so
// any nondeterminism in the mint, scan, or eviction phases shows up.
func advSummary(res *sim.Result) string {
	a := res.Adversary
	s := fullSummary(res)
	s += fmt.Sprintf(" adv=%d/%d/%d/%d/%d/%d/%d/%d",
		a.HostileMints, a.HostileLive, a.HostileEvicted, a.HonestEvicted,
		a.RekeyedPrimaries, a.BlockedMints, a.PuzzleWorkCharged, a.CapturedKeys)
	s += fmt.Sprintf(" eclipse=%.9f falseEvict=%.9f", a.FinalEclipse, a.FalseEvictionRate())
	for _, e := range a.EclipseSamples {
		s += fmt.Sprintf(" ecl%d=%.9f", e.Tick, e.Fraction)
	}
	return s
}

// sybilwarCases cover the hostile code paths: the bare attack, each
// defense separately, the combined defense, and a defense-only run over
// an honest Sybil-balancing network (the false-positive path).
func sybilwarCases() []struct {
	name string
	cfg  sim.Config
} {
	attack := adversary.AttackConfig{
		Budget: 24, MintEvery: 2, TargetStart: 0.2, TargetWidth: 1.0 / 16, WorkRate: 16,
	}
	base := func(strat string) sim.Config {
		st, ok := strategy.ByName(strat)
		if !ok {
			panic("unknown strategy " + strat)
		}
		return sim.Config{
			Nodes: 150, Tasks: 6000, Strategy: st, ChurnRate: 0.01,
			Seed: 1234, MaxTicks: 300, RecordEvents: true,
			SnapshotTicks: []int{0, 50, 150},
		}
	}
	var cases []struct {
		name string
		cfg  sim.Config
	}
	add := func(name string, cfg sim.Config) {
		cases = append(cases, struct {
			name string
			cfg  sim.Config
		}{name, cfg})
	}
	c := base("none")
	c.Attack = attack
	add("attack-only/none", c)
	c = base("random")
	c.Attack = attack
	c.Defense = adversary.DefenseConfig{PuzzleBits: 6}
	add("attack-puzzle/random", c)
	c = base("random")
	c.Attack = attack
	c.Defense = adversary.DefenseConfig{Threshold: 4, ScanEvery: 10}
	add("attack-detect/random", c)
	c = base("random")
	c.Attack = attack
	c.Defense = adversary.DefenseConfig{PuzzleBits: 6, Threshold: 4}
	add("attack-full/random", c)
	c = base("random")
	c.Defense = adversary.DefenseConfig{PuzzleBits: 4, Threshold: 3}
	add("defense-only/random", c)
	return cases
}

// TestSybilwarGolden pins the byte-exact outcome of the hostile matrix
// against testdata/sybilwar_golden.txt. Regenerate with `go test
// ./internal/sim -run SybilwarGolden -update` only for intentional
// behavior changes.
func TestSybilwarGolden(t *testing.T) {
	path := filepath.Join("testdata", "sybilwar_golden.txt")
	got := make(map[string]string)
	var order []string
	for _, c := range sybilwarCases() {
		res, err := sim.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = advSummary(res)
		order = append(order, c.name)
	}
	if *updateGolden {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s: %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", path, len(order))
		return
	}
	want := loadGolden(t, path)
	for _, name := range order {
		if want[name] == "" {
			t.Errorf("%s: no golden entry (run with -update)", name)
			continue
		}
		if got[name] != want[name] {
			t.Errorf("%s: hostile engine output drifted:\n got:  %s\n want: %s",
				name, got[name], want[name])
		}
	}
}

// TestAdversaryZeroConfigInert checks the inertness contract directly:
// a run with zero Attack and Defense configs reports all-zero adversary
// stats (the byte-level proof is TestDeterminismGolden passing against
// the pre-adversary golden file).
func TestAdversaryZeroConfigInert(t *testing.T) {
	res, err := sim.Run(determinismConfig(t, "random", 42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Adversary, sim.AdversaryStats{}) {
		t.Errorf("zero configs produced adversary stats: %+v", res.Adversary)
	}
}

// attackConfig is the shared behavioral-test setup: a budget-24
// adversary against a 100-host ring with the whole budget mintable in
// the first tick.
func attackConfig(t *testing.T) sim.Config {
	t.Helper()
	st, _ := strategy.ByName("none")
	return sim.Config{
		Nodes: 100, Tasks: 5000, Strategy: st, Seed: 99, MaxTicks: 200,
		Attack: adversary.AttackConfig{
			Budget: 24, TargetStart: 0.25, TargetWidth: 1.0 / 16, WorkRate: 64,
		},
	}
}

// TestEclipseUndefendedVsDefended is the headline behavioral check: an
// undefended attack achieves nonzero eclipse success, and turning the
// density defense on strictly reduces it while actually evicting
// hostile identities.
func TestEclipseUndefendedVsDefended(t *testing.T) {
	undef, err := sim.Run(attackConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if undef.Adversary.FinalEclipse <= 0 {
		t.Fatalf("undefended attack achieved no eclipse: %+v", undef.Adversary)
	}
	if undef.Adversary.HostileMints == 0 || undef.Adversary.CapturedKeys == 0 {
		t.Fatalf("undefended attack placed no identities or captured no keys: %+v", undef.Adversary)
	}
	cfg := attackConfig(t)
	cfg.Defense = adversary.DefenseConfig{Threshold: 3, ScanEvery: 5}
	def, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Adversary.HostileEvicted == 0 {
		t.Errorf("defense never evicted a hostile identity: %+v", def.Adversary)
	}
	if def.Adversary.FinalEclipse >= undef.Adversary.FinalEclipse {
		t.Errorf("defense did not reduce eclipse success: defended %.4f >= undefended %.4f",
			def.Adversary.FinalEclipse, undef.Adversary.FinalEclipse)
	}
}

// TestPuzzleCostChargesHonestJoins checks the defense's collateral
// cost: with admission puzzles on and churn running, honest joiners are
// charged work that slows the job down.
func TestPuzzleCostChargesHonestJoins(t *testing.T) {
	st, _ := strategy.ByName("random")
	base := sim.Config{
		Nodes: 100, Tasks: 8000, Strategy: st, ChurnRate: 0.02, Seed: 7,
	}
	free, err := sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Defense = adversary.DefenseConfig{PuzzleBits: 10}
	taxed, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if taxed.Adversary.PuzzleWorkCharged == 0 {
		t.Fatal("puzzle defense charged no admission work despite churn and Sybil mints")
	}
	if taxed.Ticks <= free.Ticks {
		t.Errorf("puzzle cost did not slow the job: taxed %d ticks <= free %d", taxed.Ticks, free.Ticks)
	}
}

// TestHonestFalseEvictions checks the detector's known blind spot: the
// paper's balancing strategies mint dense IDs by design, so with no
// attacker at all an aggressive threshold still evicts honest
// identities — and every eviction is a false positive.
func TestHonestFalseEvictions(t *testing.T) {
	st, _ := strategy.ByName("random")
	cfg := sim.Config{
		Nodes: 120, Tasks: 8000, Strategy: st, ChurnRate: 0.01, Seed: 5,
		Defense: adversary.DefenseConfig{Threshold: 1.5, ScanEvery: 5},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Adversary
	if a.HonestEvicted+a.RekeyedPrimaries == 0 {
		t.Fatalf("aggressive threshold never fired on an honest network: %+v", a)
	}
	if got := a.FalseEvictionRate(); got != 1 {
		t.Errorf("FalseEvictionRate = %v with no attacker, want 1", got)
	}
	if a.HostileMints != 0 || a.HostileEvicted != 0 {
		t.Errorf("hostile accounting nonzero without an attacker: %+v", a)
	}
}
