package sim

import (
	"slices"
	"testing"

	"chordbalance/internal/adversary"
	"chordbalance/internal/xrand"
)

// TestHostileHostCannotMint checks that the adversary's hostile host,
// which backs every hostile virtual node, is a zero-cap host: it never
// reports mint capacity, so strategies that probe CanCreateSybil leave
// it alone, and a mint past its cap panics.
func TestHostileHostCannotMint(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 40, Seed: 1, Attack: adversary.AttackConfig{Budget: 2}})
	hostile := s.adv.hostile
	if hostile.CanCreateSybil() || hostile.Index() != len(s.hosts) {
		t.Fatalf("hostile host: can=%v index=%d, want false/%d", hostile.CanCreateSybil(), hostile.Index(), len(s.hosts))
	}
	mustPanic(t, "a hostile-host Sybil", hostile.createdSybil)
}

// TestLeaveResetsSybilCount checks that a departure withdraws every
// Sybil identity with the host, that a rejoiner starts with none, and
// that the last live host of a network can leave like any other (the
// ring-must-not-empty rule lives in churn and crashHost).
func TestLeaveResetsSybilCount(t *testing.T) {
	s := newWorld(t, Config{Nodes: 1, Tasks: 10, MaxSybils: 2, Seed: 1})
	h := s.hosts[0]
	h.createdSybil()
	h.createdSybil()
	s.setAlive(h, false)
	if h.SybilCount() != 0 || h.CanCreateSybil() {
		t.Fatalf("after leaving: count=%d can=%v, want 0/false", h.SybilCount(), h.CanCreateSybil())
	}
	if n := len(s.aliveHosts()); n != 0 {
		t.Fatalf("empty network has %d live hosts", n)
	}
	s.setAlive(h, true)
	if h.SybilCount() != 0 || !h.CanCreateSybil() {
		t.Fatalf("after rejoining: count=%d can=%v, want 0/true", h.SybilCount(), h.CanCreateSybil())
	}
	if n := len(s.aliveHosts()); n != 1 {
		t.Fatalf("rejoined network has %d live hosts, want 1", n)
	}
}

// TestHeterogeneousStrengthIsCap checks the heterogeneous draw (§V-B):
// strengths uniform on 1..MaxSybils, every host's Sybil cap equal to
// its strength, and work per tick equal to strength only under the
// strength rule. Host i's strength, waiting pool included, is the i-th
// draw of a fresh engine stream: the population is drawn in index order
// before anything else reads the stream, and every heterogeneous result
// depends on that order.
func TestHeterogeneousStrengthIsCap(t *testing.T) {
	cfg := Config{Nodes: 500, Tasks: 500, Heterogeneous: true, WorkByStrength: true, Seed: 42}
	s := newWorld(t, cfg)
	draws := xrand.New(cfg.Seed)
	counts := map[int]int{}
	total := 0
	for i, h := range s.hosts {
		if want := draws.IntRange(1, 5); h.Strength() != want {
			t.Fatalf("host %d: strength %d, want draw %d of the seed's stream, %d", i, h.Strength(), i, want)
		}
		if h.maxSybil != h.Strength() {
			t.Fatalf("host %d: strength %d cap %d", h.Index(), h.Strength(), h.maxSybil)
		}
		if budgetUnder(h, false) != 1 || budgetUnder(h, true) != h.Strength() {
			t.Fatalf("host %d: work %d/%d at strength %d", h.Index(), budgetUnder(h, false), budgetUnder(h, true), h.Strength())
		}
		counts[h.Strength()]++
		if h.alive {
			total += h.Strength()
		}
	}
	for st := 1; st <= 5; st++ {
		if counts[st] < 120 || counts[st] > 280 {
			t.Errorf("strength %d drawn %d times of 1000, want ~200", st, counts[st])
		}
	}
	// The ideal runtime divides the job by the live hosts' strength.
	if want := (500 + total - 1) / total; s.IdealTicks() != want {
		t.Errorf("IdealTicks = %d, want %d (total strength %d)", s.IdealTicks(), want, total)
	}
}

// TestHomogeneousStrengthOne checks the homogeneous population: the
// first Nodes hosts live and the next Nodes waiting, all at strength 1
// under the default cap of 5, with a MaxSybils of 1 collapsing a
// heterogeneous draw to the same strength 1.
func TestHomogeneousStrengthOne(t *testing.T) {
	s := newWorld(t, Config{Nodes: 8, Tasks: 80, WorkByStrength: true, Seed: 1})
	if len(s.hosts) != 16 || len(s.aliveHosts()) != 8 {
		t.Fatalf("%d hosts, %d live; want 16, 8", len(s.hosts), len(s.aliveHosts()))
	}
	for i, h := range s.hosts {
		if h.Index() != i || h.Strength() != 1 || h.maxSybil != 5 || h.alive != (i < 8) {
			t.Fatalf("host %d: index %d strength %d cap %d alive %v", i, h.Index(), h.Strength(), h.maxSybil, h.alive)
		}
	}
	if s.IdealTicks() != 10 {
		t.Errorf("IdealTicks = %d, want 80 tasks / 8 hosts = 10", s.IdealTicks())
	}
	het := newWorld(t, Config{Nodes: 4, Tasks: 4, Heterogeneous: true, MaxSybils: 1, Seed: 3})
	for _, h := range het.hosts {
		if h.Strength() != 1 || h.maxSybil != 1 {
			t.Fatalf("MaxSybils 1 heterogeneous host %d: strength %d cap %d", h.Index(), h.Strength(), h.maxSybil)
		}
	}
}

// TestAliveHostsRepairAcrossTicks checks the live-host list's
// incremental repair when reads are ticks apart, as they are once no
// per-tick pass reads it: the joiners then span several runs out of
// index order, and a host can leave and rejoin — or join, leave and
// rejoin — between two reads. Every read must equal a full rescan in
// index order, with no host twice.
func TestAliveHostsRepairAcrossTicks(t *testing.T) {
	s := newWorld(t, Config{Nodes: 10, Tasks: 100, Seed: 1})
	check := func(when string) {
		t.Helper()
		var want []*hostState
		for _, h := range s.hosts {
			if h.alive {
				want = append(want, h)
			}
		}
		got := s.aliveHosts()
		if len(got) != len(want) {
			t.Fatalf("%s: %d live hosts listed, rescan finds %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d lists host %d, rescan has host %d", when, i, got[i].Index(), want[i].Index())
			}
		}
	}
	check("fresh")
	h := s.hosts
	// Tick 1: two joiners and a leaver. Tick 2: a later joiner before an
	// earlier one, the leaver back, and joiner 15 out and in again.
	s.setAlive(h[15], true)
	s.setAlive(h[12], true)
	s.setAlive(h[3], false)
	s.setAlive(h[11], true)
	s.setAlive(h[3], true)
	s.setAlive(h[15], false)
	s.setAlive(h[15], true)
	s.setAlive(h[12], false)
	check("after joins, leaves and rejoins over two ticks")

	// Random toggles, read every few ticks.
	rng := xrand.New(7)
	for tick := 0; tick < 200; tick++ {
		for n := rng.Intn(4); n > 0; n-- {
			x := h[rng.Intn(len(h))]
			s.setAlive(x, !x.alive)
		}
		if rng.Intn(5) == 0 {
			check("random toggles")
		}
	}
	check("end")
}

// budgetUnder is h's per-tick work under the given work rule.
func budgetUnder(h *hostState, byStrength bool) int {
	defer func(old bool) { h.sim.cfg.WorkByStrength = old }(h.sim.cfg.WorkByStrength)
	h.sim.cfg.WorkByStrength = byStrength
	return h.budget()
}

// liveBudget sums budgetUnder over s's live hosts: under the strength
// rule, the total strength the ideal runtime divides the job by.
func liveBudget(s *Simulation, byStrength bool) int {
	sum := 0
	for _, h := range s.aliveHosts() {
		sum += budgetUnder(h, byStrength)
	}
	return sum
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestHostSybilAccounting(t *testing.T) {
	h := &hostState{index: 3, strength: 1, maxSybil: 2, alive: true}
	if !h.CanCreateSybil() {
		t.Fatal("fresh host must allow Sybils")
	}
	h.createdSybil()
	h.createdSybil()
	if h.CanCreateSybil() {
		t.Error("host at cap must refuse")
	}
	if h.SybilCount() != 2 {
		t.Errorf("count = %d", h.SybilCount())
	}
	h.droppedSybil()
	if h.SybilCount() != 1 || !h.CanCreateSybil() {
		t.Error("drop must free capacity")
	}
}

func TestHostCreatePastCapPanics(t *testing.T) {
	h := &hostState{maxSybil: 1, alive: true}
	h.createdSybil()
	mustPanic(t, "a Sybil past the cap", h.createdSybil)
}

func TestHostDropBelowZeroPanics(t *testing.T) {
	h := &hostState{maxSybil: 1, alive: true}
	mustPanic(t, "dropping an absent Sybil", h.droppedSybil)
}

// TestDeadHostCannotCreate checks that a host in the churn waiting pool
// has no mint capacity, through the View a strategy would use.
func TestDeadHostCannotCreate(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 40, Seed: 1})
	for _, h := range s.hosts[4:] {
		if h.CanCreateSybil() {
			t.Fatalf("waiting-pool host %d can create Sybils", h.Index())
		}
		if _, ok := h.CreateSybil(s.randomID()); ok || h.SybilCount() != 0 {
			t.Fatalf("waiting-pool host %d created a Sybil", h.Index())
		}
	}
}

// TestSetAliveResetsSybils checks that a departure through setAlive
// zeroes the Sybil count and a rejoin restores the mint capacity.
func TestSetAliveResetsSybils(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 40, MaxSybils: 3, Seed: 1})
	h := s.hosts[2]
	h.createdSybil()
	h.createdSybil()
	s.setAlive(h, false)
	if h.SybilCount() != 0 {
		t.Error("leaving must drop all Sybil identities")
	}
	s.setAlive(h, true)
	if !h.alive || h.SybilCount() != 0 || !h.CanCreateSybil() {
		t.Error("rejoin state wrong")
	}
}

// TestWorkPerTick checks the work rule (§V-B, "Work Measurement"): one
// task a tick, or the host's strength under WorkByStrength.
func TestWorkPerTick(t *testing.T) {
	h := &hostState{strength: 4, sim: &Simulation{}}
	if budgetUnder(h, false) != 1 {
		t.Error("single-task mode must be 1")
	}
	if budgetUnder(h, true) != 4 {
		t.Error("strength mode must be strength")
	}
}

// TestNewPoolHomogeneous checks the population New builds: Nodes live
// hosts then Nodes waiting, each at strength 1 under the cap.
func TestNewPoolHomogeneous(t *testing.T) {
	s := newWorld(t, Config{Nodes: 10, Tasks: 100, MaxSybils: 5, Seed: 1})
	if len(s.hosts) != 20 {
		t.Fatalf("%d hosts, want 20", len(s.hosts))
	}
	waiting := 0
	for i, h := range s.hosts {
		if h.Strength() != 1 || h.maxSybil != 5 {
			t.Fatalf("host %d: strength %d cap %d", i, h.Strength(), h.maxSybil)
		}
		if h.Index() != i {
			t.Fatalf("index mismatch")
		}
		if !h.alive {
			waiting++
		}
	}
	if len(s.aliveHosts()) != 10 || waiting != 10 {
		t.Error("alive/waiting split wrong")
	}
	if liveBudget(s, false) != 10 || liveBudget(s, true) != 10 {
		t.Error("homogeneous total strength must equal live hosts")
	}
}

// TestNewPoolHeterogeneous checks the heterogeneous population's spread
// of strengths and its live total.
func TestNewPoolHeterogeneous(t *testing.T) {
	s := newWorld(t, Config{Nodes: 1000, Tasks: 1000, Heterogeneous: true, MaxSybils: 5, Seed: 42})
	counts := map[int]int{}
	for _, h := range s.aliveHosts() {
		if h.Strength() < 1 || h.Strength() > 5 {
			t.Fatalf("strength %d out of range", h.Strength())
		}
		if h.maxSybil != h.Strength() {
			t.Fatal("heterogeneous cap must equal strength")
		}
		counts[h.Strength()]++
	}
	for st := 1; st <= 5; st++ {
		if counts[st] < 120 || counts[st] > 280 {
			t.Errorf("strength %d count %d, want ~200", st, counts[st])
		}
	}
	if ts := liveBudget(s, true); ts < 2500 || ts > 3500 {
		t.Errorf("total strength = %d, want ~3000", ts)
	}
}

// TestNewPoolPanics checks that a negative Sybil cap never reaches the
// host population: New rejects it (MaxSybils 0 means the default, 5).
func TestNewPoolPanics(t *testing.T) {
	if _, err := New(Config{Nodes: 1, Tasks: 1, MaxSybils: -1, Seed: 1}); err == nil {
		t.Error("New accepted MaxSybils -1")
	}
}

// TestAllEqualStrengths pins the homogeneous boundary: every host at
// the same strength, where the heterogeneous bookkeeping must collapse
// to the paper's homogeneous model exactly.
func TestAllEqualStrengths(t *testing.T) {
	s := newWorld(t, Config{Nodes: 8, Tasks: 80, MaxSybils: 5, Seed: 1})
	for i, h := range s.hosts {
		if h.Strength() != 1 {
			t.Fatalf("host %d strength %d, want 1", i, h.Strength())
		}
		if h.maxSybil != 5 {
			t.Fatalf("host %d cap %d, want 5", i, h.maxSybil)
		}
		// Work is strength-independent in the homogeneous model whichever
		// measurement rule is active.
		if budgetUnder(h, false) != 1 || budgetUnder(h, true) != 1 {
			t.Fatalf("host %d work %d/%d, want 1/1", i, budgetUnder(h, false), budgetUnder(h, true))
		}
	}
	if got := liveBudget(s, true); got != 8 {
		t.Errorf("live strength (by strength) = %d, want 8 (alive hosts only)", got)
	}
	if got := liveBudget(s, false); got != 8 {
		t.Errorf("live strength (flat) = %d, want 8", got)
	}

	// A heterogeneous draw can also come out all-equal (MaxSybils 1
	// forces it); strength and cap must both collapse to 1.
	het := newWorld(t, Config{Nodes: 4, Tasks: 4, Heterogeneous: true, MaxSybils: 1, Seed: 3})
	for i, h := range het.hosts {
		if h.Strength() != 1 || h.maxSybil != 1 {
			t.Fatalf("degenerate heterogeneous host %d: strength %d cap %d, want 1/1",
				i, h.Strength(), h.maxSybil)
		}
	}
}

// TestSingleHostRing pins the smallest possible network: one live host.
// Every aggregate must behave, and the lone host must still be able to
// mint up to its cap through the View.
func TestSingleHostRing(t *testing.T) {
	s := newWorld(t, Config{Nodes: 1, Tasks: 10, MaxSybils: 2, Seed: 1})
	if len(s.hosts) != 2 || len(s.aliveHosts()) != 1 {
		t.Fatalf("hosts=%d alive=%d, want 2/1", len(s.hosts), len(s.aliveHosts()))
	}
	h := s.hosts[0]
	for i := 0; i < 2; i++ {
		if !h.CanCreateSybil() {
			t.Fatalf("mint %d refused below the cap", i)
		}
		if _, ok := h.CreateSybil(s.randomID()); !ok {
			t.Fatalf("mint %d failed below the cap", i)
		}
	}
	if h.CanCreateSybil() {
		t.Fatal("mint allowed past the cap")
	}
	if _, ok := h.CreateSybil(s.randomID()); ok || h.SybilCount() != 2 {
		t.Fatalf("CreateSybil past the cap: ok=%v count=%d", ok, h.SybilCount())
	}
	// Leaving a single-host network resets its Sybils like any other
	// departure; the ring-must-not-empty rule lives in churn, not here.
	s.setAlive(h, false)
	if h.SybilCount() != 0 {
		t.Errorf("departure kept %d Sybils", h.SybilCount())
	}
	if got := liveBudget(s, true); got != 0 {
		t.Errorf("empty network live strength = %d, want 0", got)
	}
	if got := len(s.aliveHosts()); got != 0 {
		t.Errorf("empty network lists %d live hosts", got)
	}
}

// TestZeroBudgetMint pins the cap-0 boundary the adversary depends on:
// the hostile host has no Sybil budget and must never report mint
// capacity, so strategies that probe CanCreateSybil leave it alone.
func TestZeroBudgetMint(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 40, Seed: 1, Attack: adversary.AttackConfig{Budget: 2}})
	h := s.adv.hostile
	if h.Index() != len(s.hosts) || !h.alive {
		t.Fatalf("hostile host index=%d alive=%v, want %d/true", h.Index(), h.alive, len(s.hosts))
	}
	if h.CanCreateSybil() {
		t.Fatal("zero-budget host reported mint capacity")
	}
	mustPanic(t, "a Sybil past a zero cap", h.createdSybil)
}

// TestStandaloneValidation pins the hostile host's record: strength 1,
// cap 0, live, never consuming, and outside the host population and
// the live list.
func TestStandaloneValidation(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 40, Seed: 1, Attack: adversary.AttackConfig{Budget: 2}})
	h := s.adv.hostile
	if h.Strength() != 1 || h.maxSybil != 0 || h.settled != never {
		t.Fatalf("hostile strength %d cap %d settled %d, want 1/0/never", h.Strength(), h.maxSybil, h.settled)
	}
	if slices.Contains(s.hosts, h) || slices.Contains(s.aliveHosts(), h) {
		t.Fatal("hostile host is in the host population")
	}
}

// TestDroppedSybilUnderflow pins the accounting guard the defense's
// eviction path relies on: dropping a Sybil a host does not have is a
// programming error, not silent corruption.
func TestDroppedSybilUnderflow(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 40, Seed: 1})
	mustPanic(t, "a Sybil count underflow", s.hosts[0].droppedSybil)
}
