package netchord

import (
	"slices"
	"testing"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/strategy"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// sharedRing converges a lockstep ring of 8 hosts running "none" with a
// three-entry successor list, and returns its hosts in ring order of
// their primaries.
func sharedRing(t *testing.T, cfg Config) (*Lockstep, []*Host) {
	t.Helper()
	cfg.SuccessorListLen = 3
	l, hosts := hostRing(t, cfg, faults.Plan{}, 8, StrategyNone, 31)
	ring := slices.Clone(hosts)
	slices.SortFunc(ring, func(a, b *Host) int { return a.PrimaryNode().ID().Compare(b.PrimaryNode().ID()) })
	return l, ring
}

// load submits units of work owned by h's primary.
func load(t *testing.T, h *Host, units uint64) {
	t.Helper()
	if err := nodeClient(h.PrimaryNode()).SubmitTask(h.PrimaryNode().ID(), units); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// served sums the requests of one type every live node has handled.
func served(l *Lockstep, typ wire.Type) int64 {
	var sum int64
	for _, n := range l.Nodes() {
		sum += n.Stats().Served[typ]
	}
	return sum
}

// sybilAt checks that h holds exactly one Sybil and that it sits at
// want, up to the 64-bit jitter in its low bytes.
func sybilAt(t *testing.T, h *Host, want ids.ID) {
	t.Helper()
	nodes := h.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("host %d has %d identities, want a primary and one Sybil", h.Index(), len(nodes))
	}
	got := nodes[1].ID()
	if [ids.Bytes - 8]byte(got[:ids.Bytes-8]) != [ids.Bytes - 8]byte(want[:ids.Bytes-8]) {
		t.Errorf("Sybil at %s, want %s up to the low 64 bits", got.Short(), want.Short())
	}
}

// decide runs one pass of the named strategy through h's World and
// returns the workload queries and invitations it sent.
func decide(t *testing.T, l *Lockstep, h *Host, name string) (queries, invites int64) {
	t.Helper()
	s, ok := strategy.ByName(name)
	if !ok {
		t.Fatalf("no strategy %q", name)
	}
	q0, i0 := served(l, wire.TWorkloadQuery), served(l, wire.TInvite)
	s.Decide(h)
	return served(l, wire.TWorkloadQuery) - q0, served(l, wire.TInvite) - i0
}

// TestHostRunsSharedStrategies runs internal/strategy's rules through a
// live host's World: each lands its Sybil where the rule says, using
// only the messages the rule charges for.
func TestHostRunsSharedStrategies(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		l, ring := sharedRing(t, Config{})
		q, inv := decide(t, l, ring[0], "random")
		if q != 0 || inv != 0 {
			t.Errorf("random sent %d workload queries and %d invites, want none", q, inv)
		}
		if n := ring[0].SybilCount(); n != 1 {
			t.Errorf("idle host holds %d Sybils after one random pass, want 1", n)
		}
	})

	t.Run("neighbor", func(t *testing.T) {
		l, ring := sharedRing(t, Config{})
		// The largest of the three successor arcs, by ID distance alone.
		best := 1
		for i := 2; i <= 3; i++ {
			arc := ring[i-1].PrimaryNode().ID().Distance(ring[i].PrimaryNode().ID())
			if arc.Compare(ring[best-1].PrimaryNode().ID().Distance(ring[best].PrimaryNode().ID())) > 0 {
				best = i
			}
		}
		q, inv := decide(t, l, ring[0], "neighbor")
		if q != 0 || inv != 0 {
			t.Errorf("neighbor sent %d workload queries and %d invites, want none", q, inv)
		}
		sybilAt(t, ring[0], ids.Midpoint(ring[best-1].PrimaryNode().ID(), ring[best].PrimaryNode().ID()))
	})

	t.Run("smart-neighbor", func(t *testing.T) {
		l, ring := sharedRing(t, Config{})
		// Load the smallest successor arc heaviest, so the pick differs
		// from neighbor's arc-size estimate.
		heavy := 1
		for i := 2; i <= 3; i++ {
			arc := ring[i-1].PrimaryNode().ID().Distance(ring[i].PrimaryNode().ID())
			if arc.Less(ring[heavy-1].PrimaryNode().ID().Distance(ring[heavy].PrimaryNode().ID())) {
				heavy = i
			}
		}
		for i := 1; i <= 3; i++ {
			units := uint64(10000)
			if i == heavy {
				units = 30000
			}
			load(t, ring[i], units)
		}
		q, inv := decide(t, l, ring[0], "smart-neighbor")
		if q != 3 || inv != 0 {
			t.Errorf("smart-neighbor sent %d workload queries and %d invites, want 3 and 0", q, inv)
		}
		sybilAt(t, ring[0], ids.Midpoint(ring[heavy-1].PrimaryNode().ID(), ring[heavy].PrimaryNode().ID()))
	})

	t.Run("invitation", func(t *testing.T) {
		l, ring := sharedRing(t, Config{SybilThreshold: 50000, InviteThreshold: 100000})
		// ring[4] is overloaded; its three predecessors all qualify, and
		// the middle one is the least loaded — not the nearest.
		load(t, ring[4], 400000)
		load(t, ring[3], 30000)
		load(t, ring[2], 10000)
		load(t, ring[1], 20000)
		q, inv := decide(t, l, ring[4], "invitation")
		if q != 3 || inv != 1 {
			t.Errorf("invitation sent %d workload queries and %d invites, want 3 probes and 1 invite", q, inv)
		}
		l.Round() // the helper injects at its next step
		sybilAt(t, ring[2], ids.Midpoint(ring[3].PrimaryNode().ID(), ring[4].PrimaryNode().ID()))
		for _, h := range []*Host{ring[1], ring[3], ring[4]} {
			if n := h.SybilCount(); n != 0 {
				t.Errorf("host %d injected %d Sybils; only the least-loaded predecessor helps", h.Index(), n)
			}
		}
	})
}

// TestRetiredSybilKeepsUndeliveredWork retires an identity holding task
// units across a network that drops every frame: a Sybil by density
// eviction and by DropSybils, and a flagged primary by eviction, which
// churns it through the lone-restart fallback. No hand-off can succeed,
// and every unit must stay on the host, re-owned at its primary.
func TestRetiredSybilKeepsUndeliveredWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		// retire retires an identity of h, whose one Sybil is s.
		retire func(h *Host, s *Node)
		// identities is how many identities h keeps.
		identities int
	}{
		{"evict-sybil", func(h *Host, s *Node) { h.considerEvict(s); h.step() }, 1},
		{"evict-primary", func(h *Host, _ *Node) { h.considerEvict(h.PrimaryNode()); h.step() }, 2},
		{"drop-sybils", func(h *Host, _ *Node) { h.DropSybils() }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := lockstepRing(t, Config{}, faults.Plan{Seed: 5, DropRate: 1}, 0, 0)
			h, err := l.AddHost(StrategyNone, 3)
			if err != nil {
				t.Fatal(err)
			}
			primary := h.PrimaryNode()
			rng := xrand.New(9)
			// The host's Sybil holds 64 units and the primary 40, each the
			// other's only successor, behind the lossy network.
			s, err := NewNode(h.cfg, h.tr, h.nf, ids.Random(rng), "")
			if err != nil {
				t.Fatal(err)
			}
			s.host = h
			s.Create()
			s.mu.Lock()
			s.succ = []wire.NodeRef{primary.Ref()}
			s.addTaskLocked(ids.Random(rng), 64)
			s.mu.Unlock()
			h.drv.run(s)
			h.mu.Lock()
			h.sybils = append(h.sybils, s)
			h.mu.Unlock()
			primary.mu.Lock()
			primary.succ = []wire.NodeRef{s.Ref()}
			primary.addTaskLocked(primary.ID(), 40)
			primary.mu.Unlock()

			tc.retire(h, s)
			st := h.Stats()
			if got := st.Residual + st.Consumed; got != 104 {
				t.Errorf("host holds %d and consumed %d units, want 104 in all", st.Residual, st.Consumed)
			}
			if n := len(h.Nodes()); n != tc.identities {
				t.Errorf("host keeps %d identities, want %d", n, tc.identities)
			}
			if tc.name == "evict-primary" && (h.PrimaryNode() == primary || st.Churns != 1 || st.Evictions != 1) {
				t.Errorf("flagged primary not churned: %+v", st)
			}
		})
	}
}

// TestSybilCapHoldsAcrossInvitationAndPass puts a host running random
// injection at MaxSybils-1 Sybils, has it accept an invitation, and
// runs the round in which it answers the invitation and its own pass
// mints: both spend the last slot, and only one may.
func TestSybilCapHoldsAcrossInvitationAndPass(t *testing.T) {
	const maxSybils = 3
	cfg := Config{MaxSybils: maxSybils, SybilThreshold: 1 << 20, DecisionEveryTicks: 1}
	l := lockstepRing(t, cfg, faults.Plan{}, 0, 0)
	h, err := l.AddHost("random", 7)
	if err != nil {
		t.Fatal(err)
	}
	inviter, err := l.AddHost(StrategyNone, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Work at or below the Sybil threshold: the pass keeps its Sybils
	// and mints more, and the host still accepts invitations.
	load(t, h, 1000)
	rng := xrand.New(11)
	for h.SybilCount() < maxSybils-1 {
		if _, ok := h.CreateSybil(ids.Random(rng)); !ok {
			t.Fatal("could not mint below the cap")
		}
	}
	from := inviter.PrimaryNode()
	var reply wire.Msg
	invite := &wire.Msg{Type: wire.TInvite, Key: ids.Random(rng), From: from.Ref()}
	if err := from.pool.call(h.PrimaryNode().Ref(), invite, &reply); err != nil || !reply.Flag {
		t.Fatalf("invitation refused at %d Sybils: %v", h.SybilCount(), err)
	}
	injects := h.Stats().Injections
	for range 3 {
		l.Round()
		if n := h.SybilCount(); n > maxSybils {
			t.Fatalf("host holds %d Sybils, cap %d", n, maxSybils)
		}
	}
	if st := h.Stats(); st.Sybils != maxSybils || st.Injections != injects+1 {
		t.Errorf("after the invitation round: %+v, want %d Sybils from %d injections", st, maxSybils, injects+1)
	}
}

// TestHostTickAllocs pins an idle host's per-tick cost: consuming,
// summing the workload and encoding the report allocate nothing, with
// Sybils as without. (Consuming held task units sorts them, which
// allocates; the networked benchmarks' hosts hold keys, not tasks.)
func TestHostTickAllocs(t *testing.T) {
	l := lockstepRing(t, Config{MaxSybils: 3}, faults.Plan{}, 0, 0)
	h, err := l.AddHost(StrategyNone, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(13)
	for h.SybilCount() < 2 {
		if _, ok := h.CreateSybil(ids.Random(rng)); !ok {
			t.Fatal("could not mint a Sybil")
		}
	}
	if got := len(h.encodeReport()); got != wire.StatsLen {
		t.Fatalf("report encodes %d bytes, want %d", got, wire.StatsLen)
	}
	for _, tc := range []struct {
		name string
		tick func()
	}{
		{"consumeTick", func() { h.consumeTick(1) }},
		{"Workload", func() { _ = h.Workload() }},
		{"encodeReport", func() { _ = h.encodeReport() }},
	} {
		if got := testing.AllocsPerRun(100, tc.tick); got != 0 {
			t.Errorf("%s allocates %v a tick, want 0", tc.name, got)
		}
	}
}
