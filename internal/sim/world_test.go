package sim

import (
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/strategy"
)

// newWorld builds a small simulation for exercising the strategy.World
// and strategy.View surfaces directly.
func newWorld(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorldEachHostOrderAndCount(t *testing.T) {
	s := newWorld(t, Config{Nodes: 20, Tasks: 400, Seed: 1})
	var indices []int
	s.EachHost(func(h strategy.View) {
		indices = append(indices, h.Index())
		if !h.Primary().Mine {
			t.Fatal("primary vnode host mismatch")
		}
	})
	if len(indices) != 20 {
		t.Fatalf("visited %d hosts", len(indices))
	}
	for i := 1; i < len(indices); i++ {
		if indices[i] <= indices[i-1] {
			t.Fatal("EachHost must iterate in stable index order")
		}
	}
}

func TestWorldSuccessorWindows(t *testing.T) {
	s := newWorld(t, Config{Nodes: 10, Tasks: 100, Seed: 2})
	var host strategy.View
	s.EachHost(func(h strategy.View) {
		if host == nil {
			host = h
		}
	})
	primary := host.Primary()
	succs := host.Successors(3)
	if len(succs) != 3 {
		t.Fatalf("successors = %d", len(succs))
	}
	// The first successor's predecessor is the asking vnode.
	if succs[0].PredID != primary.ID {
		t.Errorf("succ[0].PredID = %v, want %v", succs[0].PredID, primary.ID)
	}
	preds := host.Predecessors(3)
	if len(preds) != 3 {
		t.Fatalf("predecessors = %d", len(preds))
	}
	if primary.PredID != preds[0].ID {
		t.Errorf("pred window mismatch")
	}
	// Window capped at ring size - 1.
	if got := host.Successors(50); len(got) != 9 {
		t.Errorf("oversized window = %d, want 9", len(got))
	}
}

func TestWorldCreateSybilPaths(t *testing.T) {
	s := newWorld(t, Config{Nodes: 5, Tasks: 500, Seed: 3, MaxSybils: 1})
	var host strategy.View
	s.EachHost(func(h strategy.View) {
		if host == nil {
			host = h
		}
	})
	// Occupied ID refused.
	if _, ok := host.CreateSybil(host.Primary().ID); ok {
		t.Fatal("creating a Sybil on an occupied ID must fail")
	}
	// Free ID succeeds and reports acquired work.
	acquired, ok := host.CreateSybil(host.RandomID())
	if !ok {
		t.Fatal("free-ID creation failed")
	}
	if acquired < 0 {
		t.Fatal("negative acquisition")
	}
	if host.SybilCount() != 1 {
		t.Fatalf("sybil count = %d", host.SybilCount())
	}
	// Cap reached: refused.
	if _, ok := host.CreateSybil(host.RandomID()); ok {
		t.Fatal("cap must refuse")
	}
	// DropSybils removes exactly the Sybil identities.
	before := s.ring.Len()
	host.DropSybils()
	if host.SybilCount() != 0 || s.ring.Len() != before-1 {
		t.Fatalf("drop bookkeeping wrong: count=%d ring=%d", host.SybilCount(), s.ring.Len())
	}
	if err := s.ring.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldRandomIDIsFree(t *testing.T) {
	s := newWorld(t, Config{Nodes: 50, Tasks: 100, Seed: 4})
	for i := 0; i < 100; i++ {
		id := s.randomID()
		if _, occupied := s.ring.Get(id); occupied {
			t.Fatal("RandomID returned an occupied identifier")
		}
	}
}

func TestWorldSplitPoint(t *testing.T) {
	s := newWorld(t, Config{Nodes: 2, Tasks: 1000, Seed: 5})
	var owner strategy.View
	var heavy strategy.Peer
	s.EachHost(func(h strategy.View) {
		if p := h.Primary(); owner == nil || h.Load(p) > owner.Load(heavy) {
			owner, heavy = h, p
		}
	})
	id, ok := owner.SplitPoint(heavy)
	if !ok {
		t.Fatal("split point missing for a loaded vnode")
	}
	if !ids.BetweenRightIncl(id, heavy.PredID, heavy.ID) {
		t.Fatal("split point outside the vnode's arc")
	}
	before := owner.Load(heavy)
	var helper strategy.View
	s.EachHost(func(h strategy.View) {
		if h.Primary().ID != heavy.ID {
			helper = h
		}
	})
	acquired, ok := helper.CreateSybil(id)
	if !ok {
		t.Fatal("split-point creation failed")
	}
	// The split takes ceil(w/2) keys.
	if acquired != (before+1)/2 {
		t.Errorf("acquired %d, want %d", acquired, (before+1)/2)
	}
}

func TestWorldVNodesOf(t *testing.T) {
	s := newWorld(t, Config{Nodes: 4, Tasks: 400, Seed: 6})
	var host strategy.View
	s.EachHost(func(h strategy.View) {
		if host == nil {
			host = h
		}
	})
	if got := host.VNodes(); len(got) != 1 {
		t.Fatalf("fresh host vnodes = %d", len(got))
	}
	if _, ok := host.CreateSybil(host.RandomID()); !ok {
		t.Fatal("creation failed")
	}
	got := host.VNodes()
	if len(got) != 2 {
		t.Fatalf("after sybil: vnodes = %d", len(got))
	}
	for _, v := range got {
		if !v.Mine {
			t.Fatal("foreign vnode in VNodesOf")
		}
	}
}

func TestWorldChargeMessages(t *testing.T) {
	s := newWorld(t, Config{Nodes: 3, Tasks: 30, Seed: 7})
	s.ChargeMessages("test-kind", 5)
	s.ChargeMessages("test-kind", 2)
	if s.msgs.Strategy["test-kind"] != 7 {
		t.Errorf("charge accumulation wrong: %v", s.msgs.Strategy)
	}
}

// TestWorldSybilCacheInvalidation pins which key movements re-enter
// hosts in the finish-tick calendar. A Sybil that takes keys on arrival,
// or hands keys back on withdrawal, must reschedule exactly its own host
// and the ring successor's host, leaving every other host's finish tick
// alone; one that arrives and leaves empty changes no host's sum and
// reschedules nobody. Being a Sybil decides neither. After every step
// the calendar recount (checkCalendar) must hold.
func TestWorldSybilCacheInvalidation(t *testing.T) {
	finishes := func(s *Simulation) []int {
		out := make([]int, s.cfg.Nodes)
		for i, h := range s.hosts[:s.cfg.Nodes] {
			out[i] = h.finish
		}
		return out
	}
	// step runs op and checks that it rescheduled want hosts, that only
	// the hosts in moved changed finish tick, and that every host's
	// recorded workload is its vnodes' sum.
	step := func(s *Simulation, when string, want int, op func(), moved ...*hostState) {
		t.Helper()
		before, n := finishes(s), s.reschedules
		op()
		if got := s.reschedules - n; got != want {
			t.Errorf("%s: %d hosts rescheduled, want %d", when, got, want)
		}
		after := finishes(s)
		for i := range before {
			changed := before[i] != after[i]
			expected := false
			for _, h := range moved {
				expected = expected || h.Index() == i
			}
			if changed != expected {
				t.Errorf("%s: host %d finish tick %d -> %d, changed = %v, want %v",
					when, i, before[i], after[i], changed, expected)
			}
		}
		if err := s.checkCalendar(); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}

	s := newWorld(t, Config{Nodes: 8, Tasks: 1000, Seed: 5, CheckInvariants: true})
	if err := s.checkCalendar(); err != nil {
		t.Fatalf("fresh: %v", err)
	}
	owner, helper := s.hosts[0], s.hosts[1]
	for _, h := range s.hosts[:s.cfg.Nodes] {
		if h.Workload() > owner.Workload() {
			owner = h
		}
	}
	if helper == owner {
		helper = s.hosts[0]
	}
	id, ok := owner.SplitPoint(owner.Primary())
	if !ok {
		t.Fatal("no split point on the loaded host")
	}
	before := owner.Workload()
	var acquired int
	step(s, "a Sybil split a loaded arc", 2, func() {
		acquired, ok = helper.CreateSybil(id)
	}, owner, helper)
	if !ok || acquired == 0 {
		t.Fatalf("Sybil at the split point acquired %d keys (ok=%v)", acquired, ok)
	}
	if got := owner.Workload(); got != before-acquired {
		t.Errorf("owner reports %d after losing %d of %d keys", got, acquired, before)
	}
	if want := s.consumed + owner.Workload(); owner.finish != want {
		t.Errorf("owner finishes at tick %d, want %d", owner.finish, want)
	}
	step(s, "the Sybil handed its keys back", 2, helper.DropSybils, owner, helper)
	if got := owner.Workload(); got != before {
		t.Errorf("owner reports %d after getting its %d keys back", got, before)
	}

	// The same two operations on arcs with no keys move nothing.
	s = newWorld(t, Config{Nodes: 2, Tasks: 0, Seed: 5, CheckInvariants: true})
	step(s, "an empty Sybil arrived", 0, func() {
		if acquired, ok := s.hosts[1].CreateSybil(s.randomID()); !ok || acquired != 0 {
			t.Fatalf("Sybil on an empty ring acquired %d keys (ok=%v)", acquired, ok)
		}
	})
	step(s, "an empty Sybil left", 0, s.hosts[1].DropSybils)
	if s.busy != 0 {
		t.Errorf("empty ring counts %d busy hosts", s.busy)
	}
}

// TestSybilLifecycleOneAllocation pins the steady-state cost of one
// Sybil: the ring node, with the engine's vnode inside it. Segment
// headroom, the slot free list and the host's vnode slice absorb
// everything else once warm.
func TestSybilLifecycleOneAllocation(t *testing.T) {
	s := newWorld(t, Config{Nodes: 200, Tasks: 2000, Seed: 8})
	h := s.hosts[0]
	cycle := func() {
		if _, ok := h.CreateSybil(h.RandomID()); !ok {
			t.Fatal("CreateSybil refused a free ID")
		}
		h.DropSybils()
	}
	cycle() // warm: grows h.vnodes and the free list once
	if avg := testing.AllocsPerRun(200, cycle); avg != 1 {
		t.Errorf("one Sybil birth and retirement allocates %.2f times; want 1", avg)
	}
}
