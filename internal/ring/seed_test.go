package ring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

// seedModel is the sorted-slice reference for key ownership: node IDs
// ascending, and each node's expected window in ring order from its
// predecessor.
type seedModel struct {
	nodes []ids.ID
	win   map[ids.ID][]ids.ID
}

func newSeedModel(nodeIDs []ids.ID) *seedModel {
	m := &seedModel{nodes: append([]ids.ID(nil), nodeIDs...), win: map[ids.ID][]ids.ID{}}
	sort.Slice(m.nodes, func(i, j int) bool { return bytes.Compare(m.nodes[i][:], m.nodes[j][:]) < 0 })
	return m
}

// at returns the index of the first node at or after id, wrapping.
func (m *seedModel) at(id ids.ID) int {
	return modelSearch(m.nodes, id) % len(m.nodes)
}

func (m *seedModel) pred(i int) ids.ID { return m.nodes[(i+len(m.nodes)-1)%len(m.nodes)] }

// sortFrom orders keys by ring distance from pred, the window order.
func sortFrom(pred ids.ID, ks []ids.ID) {
	sort.SliceStable(ks, func(a, b int) bool {
		da, db := pred.Distance(ks[a]), pred.Distance(ks[b])
		return bytes.Compare(da[:], db[:]) < 0
	})
}

// seed routes batch by linear owner search, merging in ring order.
func (m *seedModel) seed(batch []ids.ID) {
	for _, k := range batch {
		o := m.nodes[m.at(k)]
		m.win[o] = append(m.win[o], k)
	}
	for i, n := range m.nodes {
		sortFrom(m.pred(i), m.win[n])
	}
}

// insert splits id's owner: the new node takes the keys up to id.
func (m *seedModel) insert(id ids.ID) {
	i := m.at(id)
	succ, pred := m.nodes[i], m.pred(i)
	var mine, rest []ids.ID
	for _, k := range m.win[succ] {
		if d, lim := pred.Distance(k), pred.Distance(id); bytes.Compare(d[:], lim[:]) <= 0 {
			mine = append(mine, k)
		} else {
			rest = append(rest, k)
		}
	}
	m.win[id], m.win[succ] = mine, rest
	m.nodes = append(m.nodes[:i], append([]ids.ID{id}, m.nodes[i:]...)...)
}

// remove hands id's window to its successor.
func (m *seedModel) remove(id ids.ID) {
	i := m.at(id)
	succ := m.nodes[(i+1)%len(m.nodes)]
	m.win[succ] = append(append([]ids.ID(nil), m.win[id]...), m.win[succ]...)
	delete(m.win, id)
	m.nodes = append(m.nodes[:i], m.nodes[i+1:]...)
}

// check compares every node's window with the model and runs the
// ring's own invariant checker.
func (m *seedModel) check(t *testing.T, r *Ring[int], step string) {
	t.Helper()
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if r.Len() != len(m.nodes) {
		t.Fatalf("%s: ring has %d nodes, model %d", step, r.Len(), len(m.nodes))
	}
	for i, want := range m.nodes {
		n := r.At(i)
		if n.ID() != want {
			t.Fatalf("%s: At(%d) = %v, model %v", step, i, n.ID(), want)
		}
		got, exp := n.Keys(), m.win[want]
		if len(got) != len(exp) {
			t.Fatalf("%s: node %v holds %d keys, model %d", step, want.Short(), len(got), len(exp))
		}
		for j := range got {
			if got[j] != exp[j] {
				t.Fatalf("%s: node %v key %d = %v, model %v", step, want.Short(), j, got[j].Short(), exp[j].Short())
			}
		}
	}
}

// withPrefix returns a random identifier whose first two bytes are p.
func withPrefix(rng *xrand.Rand, p uint16) ids.ID {
	var id ids.ID
	binary.BigEndian.PutUint64(id[0:8], rng.Uint64())
	binary.BigEndian.PutUint64(id[8:16], rng.Uint64())
	binary.BigEndian.PutUint32(id[16:20], uint32(rng.Uint64()))
	binary.BigEndian.PutUint16(id[0:2], p)
	return id
}

// TestSeedRadixMatchesModel seeds batches large enough for the radix
// path — uniform, Zipf-duplicated (one bucket far past the insertion
// sort's limit), small buckets whose keys tie on all 8 prefix bytes, and
// confined to one two-byte prefix (every key in one bucket) — onto a
// multi-segment ring, checks every window against a sorted-slice model,
// then checks that Seed kept no reference to the caller's batch and
// drives the arena-aliased windows through an Insert split, a Remove
// into the successor's consumed front and ConsumeN in every mode.
func TestSeedRadixMatchesModel(t *testing.T) {
	const shared = 0xabcd
	rng := xrand.New(5)
	g := keys.NewGenerator(41)
	nodeIDs := g.NodeIDs(600)
	for i := 0; i < 40; i++ { // owners inside the shared-prefix bucket
		nodeIDs = append(nodeIDs, withPrefix(rng, shared))
	}
	r := New[int]()
	if _, err := r.Build(nodeIDs, make([]int, len(nodeIDs))); err != nil {
		t.Fatal(err)
	}
	if r.Segments() < 2 {
		t.Fatalf("built ring has %d segments, want several", r.Segments())
	}
	m := newSeedModel(nodeIDs)

	prefixed := make([]ids.ID, radixMin)
	for i := range prefixed {
		prefixed[i] = withPrefix(rng, shared)
	}
	// Buckets of 2 to 32 keys that share all 8 prefix bytes and differ
	// in bytes 8-19, every fifth key a copy of the one before: sortBucket's
	// insertion loop orders these by its 20-byte tie fallback alone. The
	// buckets are distinct and all below the shared one.
	var ties []ids.ID
	for grp := 0; len(ties) < radixMin; grp++ {
		base := withPrefix(rng, uint16(grp*97))
		for i := 0; i < 2+grp%31; i++ {
			k := withPrefix(rng, 0)
			copy(k[:8], base[:8])
			if i%5 == 4 {
				k = ties[len(ties)-1]
			}
			ties = append(ties, k)
		}
	}
	batches := []struct {
		name string
		keys []ids.ID
	}{
		{"uniform", g.TaskKeys(radixMin + 123)},
		{"zipf", keys.ZipfKeys(rng, 9, 2*radixMin, 50, 1.2)},
		{"prefix-ties", ties},
		{"shared-prefix", prefixed},
	}
	// arena collects the nodes whose windows are regions of the last
	// batch's arena: empty before it, loaded after (mergeSeed's fast path).
	var arena []*Node[int]
	for _, b := range batches {
		empty := map[ids.ID]bool{}
		for i := 0; i < r.Len(); i++ {
			empty[r.At(i).ID()] = r.At(i).Workload() == 0
		}
		if err := r.Seed(b.keys); err != nil {
			t.Fatal(err)
		}
		m.seed(b.keys)
		m.check(t, r, "seed "+b.name)
		arena = arena[:0]
		for i := 0; i < r.Len(); i++ {
			if n := r.At(i); empty[n.ID()] && n.Workload() > 0 {
				arena = append(arena, n)
			}
		}
	}
	if len(arena) < 20 {
		t.Fatalf("only %d windows alias the last arena, want the shared-prefix owners", len(arena))
	}
	for _, b := range batches {
		for i := range b.keys {
			b.keys[i] = ids.Zero
		}
	}
	m.check(t, r, "after overwriting the batches")

	// Insert split: a new node halfway through the heaviest aliased window.
	heavy := arena[0]
	for _, n := range arena {
		if n.Workload() > heavy.Workload() {
			heavy = n
		}
	}
	split, ok := heavy.SplitKey()
	if !ok {
		t.Fatal("heaviest node holds fewer than two keys")
	}
	if _, err := r.Insert(split, 0); err != nil {
		t.Fatal(err)
	}
	m.insert(split)
	m.check(t, r, "insert split")

	// Remove into the successor's consumed front (w <= succ.head), both
	// windows in the arena: the hand-off writes into the shared array.
	r.SetConsumeMode(ConsumeFront)
	used := map[*Node[int]]bool{heavy: true}
	var leaver, succ *Node[int]
	for _, n := range arena {
		for _, s := range arena {
			if !used[n] && !used[s] && r.Succ(n, 1) == s && s.Workload() > n.Workload() {
				leaver, succ = n, s
			}
		}
	}
	if leaver == nil {
		t.Fatal("no aliased node with a heavier aliased successor")
	}
	used[leaver], used[succ] = true, true
	w := leaver.Workload()
	succ.ConsumeN(w)
	m.win[succ.ID()] = m.win[succ.ID()][w:]
	if succ.head < w {
		t.Fatalf("successor head %d below the leaver's %d keys", succ.head, w)
	}
	if err := r.Remove(leaver); err != nil {
		t.Fatal(err)
	}
	m.remove(leaver.ID())
	m.check(t, r, "remove into consumed front")

	// ConsumeN in every mode on aliased windows that never consumed
	// before (so ConsumeAlternate starts at the front).
	for mode := ConsumeFront; mode <= ConsumeAlternate; mode++ {
		r.SetConsumeMode(mode)
		done := 0
		for _, n := range arena {
			win := m.win[n.ID()]
			if used[n] || len(win) < 3 || done == 5 {
				continue
			}
			used[n] = true
			k := len(win)/2 + 1
			if got := n.ConsumeN(k); got != k {
				t.Fatalf("mode %d: ConsumeN(%d) = %d", mode, k, got)
			}
			switch mode {
			case ConsumeFront:
				win = win[k:]
			case ConsumeBack:
				win = win[:len(win)-k]
			case ConsumeAlternate:
				win = win[(k+1)/2 : len(win)-k/2]
			}
			m.win[n.ID()] = win
			done++
		}
		if done == 0 {
			t.Fatalf("mode %d: no aliased window left to consume", mode)
		}
		m.check(t, r, fmt.Sprintf("ConsumeN mode %d", mode))
	}
}

// TestSeedAllocsIndependentOfOwners pins the arena: seeding 100 000
// keys onto empty windows allocates the same small constant whether
// 1 000 or 4 000 owners receive them — no per-owner copies.
func TestSeedAllocsIndependentOfOwners(t *testing.T) {
	batch := keys.NewGenerator(8).TaskKeys(100_000)
	var counts []float64
	for _, nodes := range []int{1000, 4000} {
		r, ns := buildRing(t, nodes, 0)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if err := r.Seed(batch); err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				n.ConsumeN(1 << 30)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 8 {
		t.Fatalf("Seed allocates %v times onto 1000 owners and %v onto 4000; want one constant <= 8", counts[0], counts[1])
	}
}
