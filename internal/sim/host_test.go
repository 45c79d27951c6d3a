package sim

import (
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
	defer func() {
		if recover() == nil {
			t.Error("a hostile-host Sybil did not panic")
		}
	}()
	hostile.CreatedSybil()
}

// TestLeaveResetsSybilCount checks that a departure withdraws every
// Sybil identity with the host, that a rejoiner starts with none, and
// that the last live host of a network can leave like any other (the
// ring-must-not-empty rule lives in churn and crashHost).
func TestLeaveResetsSybilCount(t *testing.T) {
	s := newWorld(t, Config{Nodes: 1, Tasks: 10, MaxSybils: 2, Seed: 1})
	h := s.hosts[0]
	h.CreatedSybil()
	h.CreatedSybil()
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
// strength rule.
func TestHeterogeneousStrengthIsCap(t *testing.T) {
	s := newWorld(t, Config{Nodes: 500, Tasks: 500, Heterogeneous: true, WorkByStrength: true, Seed: 42})
	counts := map[int]int{}
	total := 0
	for _, h := range s.hosts {
		if h.Strength() < 1 || h.Strength() > 5 || h.MaxSybils() != h.Strength() {
			t.Fatalf("host %d: strength %d cap %d", h.Index(), h.Strength(), h.MaxSybils())
		}
		if h.WorkPerTick(false) != 1 || h.WorkPerTick(true) != h.Strength() {
			t.Fatalf("host %d: work %d/%d at strength %d", h.Index(), h.WorkPerTick(false), h.WorkPerTick(true), h.Strength())
		}
		counts[h.Strength()]++
		if h.Alive() {
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
		if h.Index() != i || h.Strength() != 1 || h.MaxSybils() != 5 || h.Alive() != (i < 8) {
			t.Fatalf("host %d: index %d strength %d cap %d alive %v", i, h.Index(), h.Strength(), h.MaxSybils(), h.Alive())
		}
	}
	if s.IdealTicks() != 10 {
		t.Errorf("IdealTicks = %d, want 80 tasks / 8 hosts = 10", s.IdealTicks())
	}
	het := newWorld(t, Config{Nodes: 4, Tasks: 4, Heterogeneous: true, MaxSybils: 1, Seed: 3})
	for _, h := range het.hosts {
		if h.Strength() != 1 || h.MaxSybils() != 1 {
			t.Fatalf("MaxSybils 1 heterogeneous host %d: strength %d cap %d", h.Index(), h.Strength(), h.MaxSybils())
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
			if h.Alive() {
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
			s.setAlive(x, !x.Alive())
		}
		if rng.Intn(5) == 0 {
			check("random toggles")
		}
	}
	check("end")
}
