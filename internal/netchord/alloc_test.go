package netchord

import (
	"slices"
	"testing"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
)

// TestSteadyRoundAllocatesNothing pins the steady-state cost of
// maintenance: once a replicated ring has converged and its replicas
// agree, a Lockstep round — stabilization, predecessor check, finger
// repair, anti-entropy digests, with DensityThreshold set the density
// scan, and every RPC these make, served side included — allocates
// nothing beyond what its finger lookup does. That lookup's replies
// carry the answerers' successor lists, which name nodes from all over
// the ring and change as the repair moves from finger to finger; a
// reply shares only the addresses it holds (wire.Msg), so a list from
// another answerer allocates those the last one lacked. The measured
// run is a full finger cycle, ids.Bits rounds, which repairs every
// finger once in FixFingers' order and runs every periodic pass many
// times over; so its count must equal that of FixFingers, which does
// the lookups alone, and a lookup must allocate less than one object on
// average, where a fresh reply would cost several. runs is 1, so both
// counts are exact rather than averages rounded down.
func TestSteadyRoundAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"replicated", Config{Replicas: 3}},
		{"density", Config{Replicas: 3, DensityThreshold: 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := lockstepRing(t, c.cfg, faults.Plan{}, 12, 1)
			putKeys(t, l, 512, 2)
			l.FixFingers()
			for range 32 { // let anti-entropy settle every arc
				l.Round()
			}
			rounds := testing.AllocsPerRun(1, func() {
				for range ids.Bits {
					l.Round()
				}
			})
			lookups := testing.AllocsPerRun(1, l.FixFingers)
			if rounds != lookups {
				t.Errorf("%d steady rounds allocate %v objects, their finger lookups alone %v; want the rounds to add none",
					ids.Bits, rounds, lookups)
			}
			if n := len(l.Nodes()) * ids.Bits; lookups >= float64(n) {
				t.Errorf("%d finger lookups allocate %v objects, want fewer than one each", n, lookups)
			}
			t.Logf("%d steady rounds allocate %v objects (%.2f a round)", ids.Bits, rounds, rounds/ids.Bits)
			if !l.Converged() {
				t.Error("ring left its converged state")
			}
		})
	}
}

// TestDedupeRefs pins dedupeRefs' rules: self and addressless entries
// are dropped, the first occurrence of an ID is kept, and the output
// stops at max entries.
func TestDedupeRefs(t *testing.T) {
	ref := func(id uint64, addr string) wire.NodeRef {
		return wire.NodeRef{ID: ids.FromUint64(id), Addr: addr}
	}
	self := ids.FromUint64(9)
	for _, c := range []struct {
		name string
		list []wire.NodeRef
		max  int
		want []wire.NodeRef
	}{
		{"empty", nil, 4, nil},
		{"self dropped", []wire.NodeRef{ref(9, "s"), ref(1, "a")}, 4, []wire.NodeRef{ref(1, "a")}},
		{"no address dropped", []wire.NodeRef{ref(1, ""), ref(2, "b")}, 4, []wire.NodeRef{ref(2, "b")}},
		{"first occurrence kept", []wire.NodeRef{ref(1, "a"), ref(2, "b"), ref(1, "a2")}, 4, []wire.NodeRef{ref(1, "a"), ref(2, "b")}},
		{"truncated at max", []wire.NodeRef{ref(1, "a"), ref(2, "b"), ref(3, "c")}, 2, []wire.NodeRef{ref(1, "a"), ref(2, "b")}},
		{"dropped entries do not count", []wire.NodeRef{ref(9, "s"), ref(1, "a"), ref(1, "a"), ref(2, "b")}, 2, []wire.NodeRef{ref(1, "a"), ref(2, "b")}},
	} {
		dst := make([]wire.NodeRef, 1, 8) // stale contents are overwritten
		got := dedupeRefs(dst, c.list, self, c.max)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestUnchangedSuccessorListIsKept checks how stabilization replaces
// n.succ: an unchanged list keeps its slice, so a steady round costs no
// copy, and a changed one gets a new slice while a reader's snapshot of
// the old one keeps its contents. The ring outnumbers the list, so the
// changed list is as long as the old one and could have been written
// over it.
func TestUnchangedSuccessorListIsKept(t *testing.T) {
	l := lockstepRing(t, Config{Replicas: 3}, faults.Plan{}, 12, 3)
	for range 16 { // fill every successor list
		l.Round()
	}
	n := l.Nodes()[0]
	snapshot := func() []wire.NodeRef {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.succ
	}
	before := snapshot()
	want := slices.Clone(before)
	n.stabilizeOnce()
	if after := snapshot(); &after[0] != &before[0] || !slices.Equal(after, want) {
		t.Fatalf("a steady stabilization replaced the successor list: %v, was %v", after, want)
	}
	if err := l.Kill(before[1].ID); err != nil {
		t.Fatal(err)
	}
	l.Round()
	l.Round()
	if after := snapshot(); slices.Equal(after, want) || len(after) != len(want) {
		t.Fatalf("after a successor died the list is %v, want a changed list as long as %v", after, want)
	}
	if !slices.Equal(before, want) {
		t.Errorf("a changed successor list wrote a reader's snapshot: %v, was %v", before, want)
	}
}
