package strategy

import (
	"testing"

	"chordbalance/internal/ids"
)

func TestStrengthInvitationPicksStrongest(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	_, v := w.addHost(0, 500, 5)
	v.workload = 500
	weakIdle := &fakeHost{index: 1, workload: 0, cap: 5, strength: 1}
	strongIdle := &fakeHost{index: 2, workload: 0, cap: 5, strength: 4}
	w.preds[0] = []*fakeVNode{
		&fakeVNode{id: ids.FromUint64(10), host: weakIdle},
		&fakeVNode{id: ids.FromUint64(20), host: strongIdle},
	}
	NewStrengthInvitation().Decide(w)
	if len(w.created) != 1 || w.created[0].host != 2 {
		t.Fatalf("strongest predecessor must help: %v", w.created)
	}
}

func TestStrengthInvitationTiesBreakOnWorkload(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	w.params.SybilThreshold = 10
	_, v := w.addHost(0, 500, 5)
	v.workload = 500
	busier := &fakeHost{index: 1, workload: 8, cap: 5, strength: 2}
	idler := &fakeHost{index: 2, workload: 1, cap: 5, strength: 2}
	w.preds[0] = []*fakeVNode{
		&fakeVNode{id: ids.FromUint64(10), host: busier},
		&fakeVNode{id: ids.FromUint64(20), host: idler},
	}
	NewStrengthInvitation().Decide(w)
	if len(w.created) != 1 || w.created[0].host != 2 {
		t.Fatalf("equal strength must fall back to least workload: %v", w.created)
	}
}

func TestStrengthInvitationRefusesLikeBase(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	_, v := w.addHost(0, 500, 5)
	v.workload = 500
	busy := &fakeHost{index: 1, workload: 50, cap: 5, strength: 9}
	w.preds[0] = []*fakeVNode{&fakeVNode{id: ids.FromUint64(10), host: busy}}
	NewStrengthInvitation().Decide(w)
	if len(w.created) != 0 {
		t.Error("busy predecessors must refuse regardless of strength")
	}
}

func TestStrengthAwareRandomStrongAlwaysActs(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 0, 5)
	h.strength = 3 // the maximum in this world: probability 1
	NewStrengthAwareRandom().Decide(w)
	if len(w.created) != 1 {
		t.Fatalf("strongest host must act every pass: %v", w.created)
	}
}

func TestStrengthAwareRandomWeakActsProportionally(t *testing.T) {
	w := newFakeWorld()
	weak, _ := w.addHost(0, 0, 50)
	weak.strength = 1
	strong, _ := w.addHost(1, 0, 50)
	strong.strength = 4
	s := NewStrengthAwareRandom()
	// Run many passes; the weak host should act in roughly 1/4 of them.
	weakCreations := 0
	const passes = 400
	for i := 0; i < passes; i++ {
		before := len(w.created)
		s.Decide(w)
		for _, c := range w.created[before:] {
			if c.host == 0 {
				weakCreations++
			}
		}
		// Reset capacity so the cap never binds.
		weak.sybils, strong.sybils = 0, 0
	}
	if weakCreations < passes/8 || weakCreations > passes/2 {
		t.Errorf("weak host created %d/%d, want ~%d", weakCreations, passes, passes/4)
	}
}

func TestStrengthAwareRandomDropsIdleSybils(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 0, 5)
	h.strength = 1
	h.sybils = 2
	NewStrengthAwareRandom().Decide(w)
	if len(w.dropped) != 1 {
		t.Error("workless sybils must be withdrawn")
	}
}

func TestTargetedInjectionUsesSplitPoint(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	victim := &fakeVNode{
		id: ids.FromUint64(5000), pred: ids.FromUint64(1000),
		workload: 40, host: &fakeHost{index: 1},
	}
	w.succs[0] = []*fakeVNode{victim}
	split := ids.FromUint64(3333)
	w.splitPoints = map[ids.ID]ids.ID{victim.id: split}
	NewTargetedInjection().Decide(w)
	if len(w.created) != 1 || w.created[0].id != split {
		t.Fatalf("sybil must land on the split point: %v", w.created)
	}
	if w.messages["workload-query"] == 0 || w.messages["split-query"] != 1 {
		t.Errorf("messages = %v", w.messages)
	}
}

func TestTargetedInjectionSkipsTinyVictims(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	victim := &fakeVNode{
		id: ids.FromUint64(5000), pred: ids.FromUint64(1000),
		workload: 1, host: &fakeHost{index: 1},
	}
	w.succs[0] = []*fakeVNode{victim}
	NewTargetedInjection().Decide(w)
	if len(w.created) != 0 {
		t.Error("a single remaining key is not worth splitting")
	}
}

func TestTargetedInjectionNoSplitPointAvailable(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	victim := &fakeVNode{
		id: ids.FromUint64(5000), pred: ids.FromUint64(1000),
		workload: 40, host: &fakeHost{index: 1},
	}
	w.succs[0] = []*fakeVNode{victim} // splitPoints map empty: not ok
	NewTargetedInjection().Decide(w)
	if len(w.created) != 0 {
		t.Error("no split point: no Sybil")
	}
}

func TestOraclePairsIdleWithHeaviest(t *testing.T) {
	w := newFakeWorld()
	_, idleV := w.addHost(0, 0, 5)
	_ = idleV
	_, heavyV := w.addHost(1, 400, 5)
	heavyV.workload = 400
	_, lightV := w.addHost(2, 10, 5)
	lightV.workload = 10
	split := ids.FromUint64(4242)
	w.splitPoints = map[ids.ID]ids.ID{heavyV.id: split}
	NewOracle().Decide(w)
	if len(w.created) != 1 || w.created[0].host != 0 || w.created[0].id != split {
		t.Fatalf("oracle must split the heaviest arc for the idle host: %v", w.created)
	}
}

func TestOracleSkipsOwnVNodes(t *testing.T) {
	w := newFakeWorld()
	h, v := w.addHost(0, 0, 5)
	_ = h
	// The only heavy vnode belongs to the idle host itself... except an
	// idle host has workload 0, so fake a second host with 1 key (below
	// the split threshold of 2).
	_, tiny := w.addHost(1, 1, 5)
	tiny.workload = 1
	NewOracle().Decide(w)
	if len(w.created) != 0 {
		t.Errorf("nothing worth splitting: %v", w.created)
	}
	_ = v
}

func TestOracleDropsIdleSybils(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 0, 5)
	h.sybils = 2
	NewOracle().Decide(w)
	if len(w.dropped) != 1 {
		t.Error("oracle must withdraw workless Sybils")
	}
}

func TestExtensionNamesAndByName(t *testing.T) {
	for _, name := range []string{"strength-invitation", "strength-random", "targeted", "oracle"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missing", name)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
}
