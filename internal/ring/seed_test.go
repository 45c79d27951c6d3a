package ring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
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

// arenaBatches returns the batch shapes sortedArena must sort at size
// n: uniform SHA-1 keys, Zipf duplicates, runs of seven keys that tie
// on all 8 prefix bytes (every fifth key a copy of the one before), one
// shared top byte (all of phase 2 in one claim, with second-byte
// buckets past sortBucket's insertion limit from about 12k keys on) and
// one shared two-byte prefix (one bucket).
func arenaBatches(n int) map[string][]ids.ID {
	rng := xrand.New(uint64(n) + 1)
	ties := make([]ids.ID, n)
	for i := range ties {
		ties[i] = withPrefix(rng, uint16(rng.Uint64()))
		if i%7 != 0 {
			copy(ties[i][:8], ties[i-1][:8])
		}
		if i%5 == 4 {
			ties[i] = ties[i-1]
		}
	}
	top := make([]ids.ID, n)
	shared := make([]ids.ID, n)
	for i := range top {
		top[i] = withPrefix(rng, uint16(rng.Uint64()))
		top[i][0] = 0x5a
		shared[i] = withPrefix(rng, 0xabcd)
	}
	return map[string][]ids.ID{
		"uniform":       keys.NewGenerator(uint64(n)).TaskKeys(n),
		"zipf":          keys.ZipfKeys(rng, 9, n, 50, 1.2),
		"prefix-ties":   ties,
		"shared-top":    top,
		"shared-prefix": shared,
	}
}

// sortedModel is the sorted-slice reference: a copy sorted by the
// library sort with ids.Compare (FuzzCompare pins it to bytes.Compare).
func sortedModel(batch []ids.ID) []ids.ID {
	m := slices.Clone(batch)
	slices.SortFunc(m, ids.ID.Compare)
	return m
}

// copyFill is the fill Seed gives sortedArena for a finished batch.
func copyFill(batch []ids.ID) func(dst []ids.ID, from int) {
	return func(dst []ids.ID, from int) { copy(dst, batch[from:]) }
}

// checkArena sorts batch, copied in by the claims in the order they
// run, and compares the arena with the sorted model want and the batch
// with its copy (the batch is only read).
func checkArena(t *testing.T, what string, batch, want []ids.ID) {
	t.Helper()
	orig := slices.Clone(batch)
	got := sortedArena(len(batch), copyFill(batch))
	if len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("%s: arena len %d cap %d, want %d", what, len(got), cap(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arena[%d] = %v, model %v", what, i, got[i].Short(), want[i].Short())
		}
	}
	if !slices.Equal(batch, orig) {
		t.Fatalf("%s: sortedArena wrote to its source slice", what)
	}
}

// TestSortedArenaMatchesModel checks the seed sort against a sorted
// copy at every size its pipeline treats differently — empty, below
// radixMin (serial), exactly one chunk, one chunk and a key, and a
// ragged multi-chunk batch — for every batch shape, and at a
// sim-paper-1k trial's 100k for the shapes the simulator seeds (uniform
// and Zipf), on the caller alone (GOMAXPROCS 1) and with helpers.
func TestSortedArenaMatchesModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type batch struct {
		name       string
		keys, want []ids.ID
	}
	var batches []batch
	add := func(n int, name string, ks []ids.ID) {
		batches = append(batches, batch{fmt.Sprintf("n=%d %s", n, name), ks, sortedModel(ks)})
	}
	for _, n := range []int{0, 1, radixMin - 1, radixMin, seedChunk + 1, 5*seedChunk + 123} {
		for name, ks := range arenaBatches(n) {
			add(n, name, ks)
		}
	}
	large := arenaBatches(100_000)
	add(100_000, "uniform", large["uniform"])
	add(100_000, "zipf", large["zipf"])
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, b := range batches {
			checkArena(t, fmt.Sprintf("procs=%d %s", procs, b.name), b.keys, b.want)
		}
	}
}

// TestSortedArena2M hashes sim-scale-100k's uniform batch, plus one key,
// straight into the arena with helpers, as the simulator seeds it. A
// library sort of 2M keys is too slow under the race detector to be
// the model here, so the arena must be ascending, as long as the batch
// and hold the same keys: equal wrapping sums of every key's words,
// which a lost, repeated or corrupted key would break.
func TestSortedArena2M(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 2_000_001
	batch := keys.NewGenerator(3).TaskKeys(n)
	got := sortedArena(n, keys.NewGenerator(3).Reserve(n))
	if len(got) != n {
		t.Fatalf("arena holds %d keys, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if bytes.Compare(got[i-1][:], got[i][:]) > 0 {
			t.Fatalf("arena descends at %d: %v then %v", i, got[i-1].Short(), got[i].Short())
		}
	}
	if a, b := keySums(got), keySums(batch); a != b {
		t.Fatalf("arena key sums %x, batch %x", a, b)
	}
}

// keySums returns the wrapping sums of the keys' three big-endian words.
func keySums(ks []ids.ID) (s [3]uint64) {
	for _, k := range ks {
		s[0] += binary.BigEndian.Uint64(k[:8])
		s[1] += binary.BigEndian.Uint64(k[8:16])
		s[2] += uint64(binary.BigEndian.Uint32(k[16:]))
	}
	return s
}

// TestSortedArenaConcurrentCallers sorts on several goroutines at once,
// as a sweep's parallel trials do: they share internal/parallel's
// helpers with each other, so wake-ups go stale or are dropped, and
// every caller must still get its own sorted arena.
func TestSortedArenaConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				g := keys.NewGenerator(uint64(10*c + round))
				n := 3*seedChunk + 17*c + round
				want := sortedModel(g.TaskKeys(n))
				got := sortedArena(n, keys.NewGenerator(uint64(10*c+round)).Reserve(n))
				if !slices.Equal(got, want) {
					t.Errorf("caller %d round %d: arena differs from the model", c, round)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSeedFromMatchesSeed seeds the same keys both ways — Seed from a
// TaskKeys slice and SeedFrom straight from the generator's reserved
// range — onto twin rings, which must then hold identical windows, with
// both generators left at the same counter.
func TestSeedFromMatchesSeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 100, radixMin, 100_000} {
			a, _ := buildRing(t, 1000, 0)
			b, _ := buildRing(t, 1000, 0)
			ga, gb := keys.NewGenerator(6), keys.NewGenerator(6)
			ga.Next() // start mid-stream
			gb.Next()
			if err := a.Seed(ga.TaskKeys(n)); err != nil {
				t.Fatal(err)
			}
			if err := b.SeedFrom(n, gb.Reserve(n)); err != nil {
				t.Fatal(err)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if a.TotalKeys() != n || b.TotalKeys() != n {
				t.Fatalf("procs=%d n=%d: rings hold %d and %d keys", procs, n, a.TotalKeys(), b.TotalKeys())
			}
			for i := 0; i < a.Len(); i++ {
				if !slices.Equal(a.At(i).Keys(), b.At(i).Keys()) {
					t.Fatalf("procs=%d n=%d: node %d's window differs between Seed and SeedFrom", procs, n, i)
				}
			}
			if x, y := ga.Next(), gb.Next(); x != y {
				t.Fatalf("procs=%d n=%d: generator after Seed at %v, after SeedFrom at %v", procs, n, x.Short(), y.Short())
			}
		}
	}
	if err := New[int]().SeedFrom(3, keys.NewGenerator(1).Reserve(3)); err != ErrEmpty {
		t.Fatalf("SeedFrom on an empty ring: %v, want ErrEmpty", err)
	}
}

// TestSeedFromAllocs pins a 100k-key SeedFrom's allocation count: with
// helpers it is the count on the caller alone (AllocsPerRun runs at
// GOMAXPROCS 1) plus the one loop record, whoever ran which claim. The
// runtime can add allocations of its own to a run with helpers (a
// thread, a wait-queue entry), never remove one, so the least of five
// runs is compared.
func TestSeedFromAllocs(t *testing.T) {
	r, ns := buildRing(t, 1000, 0)
	seed := func() {
		// the same keys every run, so the wrapping owner always gets
		// its fresh window
		if err := r.SeedFrom(100_000, keys.NewGenerator(12).Reserve(100_000)); err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			n.ConsumeN(1 << 30)
		}
	}
	alone := uint64(testing.AllocsPerRun(5, seed))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	seed() // start the helper outside the count
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seed()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != alone+1 {
		t.Fatalf("a 100k-key SeedFrom allocates %d times on the caller alone and %d with helpers, want one more", alone, least)
	}
}
