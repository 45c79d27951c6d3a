package faults

import (
	"fmt"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
)

func TestValidate(t *testing.T) {
	bad := []Plan{
		{DropRate: -0.1},
		{DropRate: 1.5},
		{DupRate: 2},
		{DelayRate: -1},
		{CrashRate: -0.01},
		{CrashRate: 1.0001},
		{PartitionFrac: -0.2},
		{MaxRetries: -1},
		{BackoffBase: -2},
		{MaxDelayTicks: -1},
		{BurstEvery: -5},
		{BurstSize: -1},
		{PartitionStart: -1},
		{PartitionHeal: -3},
		{PartitionFrac: 0.5, PartitionStart: 10, PartitionHeal: 10},
		{PartitionFrac: 0.5, PartitionStart: 10, PartitionHeal: 4},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("plan %d (%+v) must be rejected", i, p)
		}
	}
	good := []Plan{
		{},
		{DropRate: 0.1, DupRate: 0.05, DelayRate: 0.2, CrashRate: 0.01},
		{BurstEvery: 10, BurstSize: 3},
		{PartitionFrac: 0.3, PartitionStart: 5, PartitionHeal: 50},
		{PartitionFrac: 0.3}, // active from tick 0, never heals
	}
	for i, p := range good {
		if _, err := New(p); err != nil {
			t.Errorf("plan %d (%+v) wrongly rejected: %v", i, p, err)
		}
	}
}

func TestZero(t *testing.T) {
	zero := []Plan{
		{},
		{Seed: 99},          // a seed alone injects nothing
		{MaxRetries: 7},     // retry policy without faults is inert
		{BurstEvery: 10},    // burst with no size never fires
		{BurstSize: 3},      // size with no cadence never fires
		{PartitionStart: 5}, // schedule without a fraction is inert
		{MaxDelayTicks: 9, Seed: 1},
	}
	for i, p := range zero {
		if !p.Zero() {
			t.Errorf("plan %d (%+v) should be Zero", i, p)
		}
	}
	nonzero := []Plan{
		{DropRate: 0.01},
		{DupRate: 0.01},
		{DelayRate: 0.01},
		{CrashRate: 0.0001},
		{BurstEvery: 10, BurstSize: 1},
		{PartitionFrac: 0.5},
	}
	for i, p := range nonzero {
		if p.Zero() {
			t.Errorf("plan %d (%+v) should not be Zero", i, p)
		}
	}
}

// TestZeroRatesConsumeNoRandomness is the inertness guarantee: decision
// methods whose rate is zero must not advance either RNG stream, so a
// plan that only crashes produces the same crash schedule no matter how
// many message-fault questions were asked in between (and vice versa).
func TestZeroRatesConsumeNoRandomness(t *testing.T) {
	mk := func() *Injector {
		in, err := New(Plan{Seed: 7, CrashRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	// Pepper a with message-level questions; its DropRate/DupRate/
	// DelayRate are all zero so they must not draw.
	for i := 0; i < 1000; i++ {
		if a.DropNow() || a.DupNow() || a.DelayNow() != 0 {
			t.Fatal("zero-rate decision fired")
		}
	}
	for i := 0; i < 64; i++ {
		if got, want := a.CrashNow(), b.CrashNow(); got != want {
			t.Fatalf("crash draw %d diverged after no-op message draws", i)
		}
	}
}

// TestSameSeedSameSequence pins determinism: two injectors built from the
// same plan answer every question identically.
func TestSameSeedSameSequence(t *testing.T) {
	plan := Plan{Seed: 42, DropRate: 0.3, DupRate: 0.1, DelayRate: 0.2,
		CrashRate: 0.05, BurstEvery: 10, BurstSize: 2}
	mk := func() *Injector {
		in, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	var sa, sb string
	for tick := 1; tick <= 200; tick++ {
		a.AdvanceTo(tick)
		b.AdvanceTo(tick)
		sa += fmt.Sprintf("%v%v%d%v%d", a.DropNow(), a.DupNow(), a.DelayNow(), a.CrashNow(), a.BurstNow())
		sb += fmt.Sprintf("%v%v%d%v%d", b.DropNow(), b.DupNow(), b.DelayNow(), b.CrashNow(), b.BurstNow())
	}
	if sa != sb {
		t.Error("same plan, different decision sequences")
	}
}

func TestBackoff(t *testing.T) {
	cases := []struct{ base, k, want int }{
		{1, 1, 1}, {1, 2, 2}, {1, 3, 4}, {1, 4, 8},
		{2, 1, 2}, {2, 3, 8},
		{0, 1, 1},        // degenerate base treated as 1
		{1, 0, 1},        // degenerate attempt treated as 1
		{1, 64, 1 << 20}, // saturates
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.k); got != c.want {
			t.Errorf("Backoff(%d,%d) = %d, want %d", c.base, c.k, got, c.want)
		}
	}
}

func TestPartitionSchedule(t *testing.T) {
	in, err := New(Plan{PartitionFrac: 0.4, PartitionStart: 10, PartitionHeal: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tick   int
		active bool
	}{{0, false}, {9, false}, {10, true}, {19, true}, {20, false}, {100, false}} {
		in.AdvanceTo(c.tick)
		if got := in.PartitionActive(); got != c.active {
			t.Errorf("tick %d: active = %v, want %v", c.tick, got, c.active)
		}
	}
}

func TestPartitionSidesAndHeal(t *testing.T) {
	in, err := New(Plan{PartitionFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !in.PartitionActive() {
		t.Fatal("frac without schedule should be active from tick 0")
	}
	// With frac 0.5, sides split on the top bit; generate IDs until we
	// have one on each side.
	g := keys.NewGenerator(3)
	var lo, hi ids.ID
	var haveLo, haveHi bool
	for i := 0; i < 64 && !(haveLo && haveHi); i++ {
		id := g.Next()
		if in.MinoritySide(id) {
			lo, haveLo = id, true
		} else {
			hi, haveHi = id, true
		}
	}
	if !haveLo || !haveHi {
		t.Fatal("could not find IDs on both sides")
	}
	if in.SameSide(lo, hi) {
		t.Error("cross-cut IDs reported same side")
	}
	if !in.SameSide(lo, lo) || !in.SameSide(hi, hi) {
		t.Error("same-side IDs reported cross-cut")
	}
	in.Heal()
	if in.PartitionActive() {
		t.Error("partition still active after Heal")
	}
	if !in.SameSide(lo, hi) {
		t.Error("healed network still blocks cross-cut messages")
	}
	if err := in.ForcePartition(0.5); err != nil {
		t.Fatal(err)
	}
	if !in.PartitionActive() || in.SameSide(lo, hi) {
		t.Error("ForcePartition did not re-split the network")
	}
	if err := in.ForcePartition(0); err == nil {
		t.Error("ForcePartition(0) must be rejected")
	}
}

// TestRatesRoughlyHold sanity-checks that decision frequencies track the
// configured probabilities (loose bounds; this is a smoke test, not a
// statistical one).
func TestRatesRoughlyHold(t *testing.T) {
	in, err := New(Plan{Seed: 9, DropRate: 0.25, CrashRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	drops, crashes := 0, 0
	for i := 0; i < n; i++ {
		if in.DropNow() {
			drops++
		}
		if in.CrashNow() {
			crashes++
		}
	}
	if f := float64(drops) / n; f < 0.2 || f > 0.3 {
		t.Errorf("drop frequency %.3f far from 0.25", f)
	}
	if f := float64(crashes) / n; f < 0.07 || f > 0.13 {
		t.Errorf("crash frequency %.3f far from 0.1", f)
	}
}

// TestCrashVictimsSparesOne checks the crash-victim rule both runtimes
// draw with: victims are distinct, at least one node survives even at
// CrashRate 1 plus a burst, and survivors and victims partition the
// nodes.
func TestCrashVictimsSparesOne(t *testing.T) {
	for _, p := range []Plan{
		{Seed: 1, CrashRate: 1},
		{Seed: 2, CrashRate: 0.3, BurstEvery: 1, BurstSize: 4},
		{Seed: 3, BurstEvery: 1, BurstSize: 100},
	} {
		in, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		in.AdvanceTo(1)
		var victims, spared []int
		for _, n := range []int{1, 2, 7, 20} {
			victims, spared = in.CrashVictims(n, victims, spared)
			seen := make(map[int]bool, n)
			for _, i := range append(append([]int(nil), victims...), spared...) {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("plan %+v, n=%d: index %d out of range or repeated (victims %v, spared %v)", p, n, i, victims, spared)
				}
				seen[i] = true
			}
			if len(seen) != n || len(spared) == 0 {
				t.Fatalf("plan %+v, n=%d: victims %v, spared %v", p, n, victims, spared)
			}
		}
	}
}
