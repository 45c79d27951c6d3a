package ring

import (
	"testing"
	"testing/quick"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

func u(v uint64) ids.ID { return ids.FromUint64(v) }

func mustInsert(t *testing.T, r *Ring[int], id uint64) *Node[int] {
	t.Helper()
	n, err := r.Insert(u(id), int(id))
	if err != nil {
		t.Fatalf("Insert(%d): %v", id, err)
	}
	return n
}

func TestEmptyRing(t *testing.T) {
	r := New[int]()
	if r.Len() != 0 || r.TotalKeys() != 0 {
		t.Error("fresh ring not empty")
	}
	if r.Owner(u(5)) != nil {
		t.Error("Owner on empty ring must be nil")
	}
	if err := r.Seed([]ids.ID{u(1)}); err != ErrEmpty {
		t.Errorf("Seed on empty ring: %v", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertOrderAndGet(t *testing.T) {
	r := New[int]()
	for _, v := range []uint64{50, 10, 30} {
		mustInsert(t, r, v)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	for i, want := range []uint64{10, 30, 50} {
		if got := r.At(i).ID(); got != u(want) {
			t.Errorf("At(%d) = %v, want %d", i, got, want)
		}
	}
	n, ok := r.Get(u(30))
	if !ok || n.Data != 30 {
		t.Errorf("Get(30) = %v, %v", n, ok)
	}
	if _, ok := r.Get(u(31)); ok {
		t.Error("Get(31) found phantom node")
	}
}

func TestInsertDuplicate(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 10)
	if _, err := r.Insert(u(10), 0); err != ErrOccupied {
		t.Errorf("duplicate insert: %v", err)
	}
}

func TestOwner(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 10)
	mustInsert(t, r, 20)
	cases := []struct{ key, owner uint64 }{
		{10, 10}, {15, 20}, {20, 20}, {25, 10}, {5, 10},
	}
	for _, c := range cases {
		if got := r.Owner(u(c.key)); got.ID() != u(c.owner) {
			t.Errorf("Owner(%d) = %v, want %d", c.key, got.ID(), c.owner)
		}
	}
}

func TestSuccPred(t *testing.T) {
	r := New[int]()
	a := mustInsert(t, r, 10)
	b := mustInsert(t, r, 20)
	c := mustInsert(t, r, 30)
	if r.Succ(a, 1) != b || r.Succ(a, 2) != c || r.Succ(a, 3) != a {
		t.Error("Succ wrong")
	}
	if r.Pred(a, 1) != c || r.Pred(a, 2) != b {
		t.Error("Pred wrong")
	}
	if r.Succ(b, 0) != b {
		t.Error("Succ(n,0) must be n")
	}
	if a.PredID() != u(30) || b.PredID() != u(10) {
		t.Error("PredID wrong")
	}
}

// TestBuildLeavesSegmentHeadroom pins Build's allocation contract: both
// arrays of every segment can double in population before a splice has
// to reallocate them.
func TestBuildLeavesSegmentHeadroom(t *testing.T) {
	r, _ := buildRing(t, 1000, 0)
	if r.Segments() < 2 {
		t.Fatalf("%d segments, want several", r.Segments())
	}
	for s, g := range r.segs {
		if cap(g.pfx) != 2*len(g.pfx) || cap(g.slots) != 2*len(g.slots) {
			t.Errorf("segment %d: %d nodes, prefix cap %d, slot cap %d; want twice the nodes",
				s, len(g.slots), cap(g.pfx), cap(g.slots))
		}
	}
}

// TestWalkMatchesSucc pins Walk to the k-th-successor definition on a
// multi-segment ring with stale hints: one located start, one step per
// neighbour, same nodes in the same order as Succ(n, ±i).
func TestWalkMatchesSucc(t *testing.T) {
	r, nodes := buildRing(t, 400, 0)
	if r.Segments() < 2 {
		t.Fatalf("%d segments, want several", r.Segments())
	}
	for i := 0; i < 50; i++ { // splices leave hints stale
		if err := r.Remove(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*Node[int]{nodes[50], nodes[77], r.At(0), r.At(r.Len() - 1)} {
		for _, k := range []int{0, 1, 5, -1, -5, r.Len() - 1, -(r.Len() - 1)} {
			var got []*Node[int]
			r.Walk(n, k, func(m *Node[int]) { got = append(got, m) })
			dir, steps := 1, k
			if k < 0 {
				dir, steps = -1, -k
			}
			if len(got) != steps {
				t.Fatalf("Walk(%d) visited %d nodes", k, len(got))
			}
			for i, m := range got {
				if want := r.Succ(n, dir*(i+1)); m != want {
					t.Fatalf("Walk(%d) step %d = %v, Succ says %v", k, i+1, m.ID(), want.ID())
				}
			}
		}
	}
}

// TestWalkLeavesExactHints checks that every node Walk visits, either
// way round, leaves with an exact position hint, after splices that
// made hints stale: Walk's callers read PredID on each node, which is
// O(1) only from an exact hint.
func TestWalkLeavesExactHints(t *testing.T) {
	r, nodes := buildRing(t, 400, 0)
	exact := func(n *Node[int]) bool {
		seg := r.segs[n.seg].slots
		return int(n.off) < len(seg) && seg[n.off] == n.slot
	}
	rng := xrand.New(3)
	for i := 0; i < 50; i++ { // splices leave hints stale
		if err := r.Remove(nodes[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Insert(ids.Random(rng), -1); err != nil {
			t.Fatal(err)
		}
	}
	stale := 0
	for i := range r.Len() {
		if !exact(r.At(i)) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no stale hint to repair; the splices did not shift any node")
	}
	for _, k := range []int{r.Len() / 2, -(r.Len() / 2), r.Len() + 3} {
		visited := 0
		r.Walk(nodes[60], k, func(m *Node[int]) {
			if !exact(m) {
				t.Fatalf("Walk(%d) handed fn node %s with a stale hint", k, m.ID().Short())
			}
			visited++
		})
		if visited != max(k, -k) {
			t.Fatalf("Walk(%d) visited %d nodes", k, visited)
		}
	}
	for i := range r.Len() {
		if !exact(r.At(i)) {
			t.Fatalf("node %d's hint is stale after walking the whole ring", i)
		}
	}
}

// TestGetTracksSplices checks that the search Get remembers for a
// following Insert never outlives a topology change.
func TestGetTracksSplices(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 10)
	mustInsert(t, r, 30)
	if _, ok := r.Get(u(20)); ok {
		t.Fatal("Get(20) hit on {10,30}")
	}
	n := mustInsert(t, r, 20) // reuses the remembered miss
	if got, ok := r.Get(u(20)); !ok || got != n {
		t.Fatal("Get(20) missed right after Insert(20)")
	}
	if _, err := r.Insert(u(20), 0); err != ErrOccupied { // reuses the remembered hit
		t.Fatalf("second Insert(20) = %v, want ErrOccupied", err)
	}
	if err := r.Remove(n); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(u(20)); ok {
		t.Fatal("Get(20) hit after Remove")
	}
	if _, ok := r.Get(u(30)); !ok {
		t.Fatal("Get(30) missed")
	}
	mustInsert(t, r, 5) // shifts 30's offset under the remembered hit
	if got, ok := r.Get(u(30)); !ok || got.ID() != u(30) {
		t.Fatal("Get(30) wrong after a splice to its left")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesPrefixDrift corrupts the prefix array the
// way a splice that updated only one of a segment's two arrays would.
func TestCheckInvariantsCatchesPrefixDrift(t *testing.T) {
	for name, corrupt := range map[string]func(g *segment){
		"stale prefix":   func(g *segment) { g.pfx[1] = g.pfx[0] },
		"missing prefix": func(g *segment) { g.pfx = g.pfx[:len(g.pfx)-1] },
	} {
		r := New[int]()
		for _, bit := range []int{120, 130, 140} { // three distinct prefixes
			if _, err := r.Insert(ids.PowerOfTwo(bit), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		corrupt(&r.segs[0])
		if err := r.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		}
	}
}

// TestCheckInvariantsCatchesLoadedDrift flips has-keys bits the way a
// window writer that forgot to update its bit would.
func TestCheckInvariantsCatchesLoadedDrift(t *testing.T) {
	for name, corrupt := range map[string]func(r *Ring[int], idle, loaded, freed int32){
		"idle node marked loaded": func(r *Ring[int], idle, _, _ int32) { r.setLoaded(idle, true) },
		"loaded node marked idle": func(r *Ring[int], _, loaded, _ int32) { r.setLoaded(loaded, false) },
		"free slot marked loaded": func(r *Ring[int], _, _, freed int32) { r.setLoaded(freed, true) },
	} {
		r := New[int]()
		idle, loaded := mustInsert(t, r, 10), mustInsert(t, r, 20)
		gone := mustInsert(t, r, 30)
		if err := r.Seed([]ids.ID{u(15)}); err != nil {
			t.Fatal(err)
		}
		freed := gone.slot
		if err := r.Remove(gone); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		corrupt(r, idle.slot, loaded.slot, freed)
		if err := r.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		}
	}
}

// TestLoadedBitTransitions drives every writer of the has-keys bit once
// and checks, after each step, the bit and the window of every node the
// step touched, plus the ring's own invariants.
func TestLoadedBitTransitions(t *testing.T) {
	r := New[int]()
	nodes, err := r.Build([]ids.ID{u(10), u(20), u(30), u(40)}, make([]int, 4))
	if err != nil {
		t.Fatal(err)
	}
	n10, n20, n30, n40 := nodes[0], nodes[1], nodes[2], nodes[3]
	check := func(step string, want map[*Node[int]]bool) {
		t.Helper()
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for n, loaded := range want {
			if got := r.isLoaded(n.slot); got != loaded || (n.Workload() > 0) != loaded {
				t.Fatalf("%s: node %v bit %v with %d keys, want loaded=%v", step, n.ID().Short(), got, n.Workload(), loaded)
			}
		}
	}
	seed := func(vs ...uint64) {
		t.Helper()
		batch := make([]ids.ID, len(vs))
		for i, v := range vs {
			batch[i] = u(v)
		}
		if err := r.Seed(batch); err != nil {
			t.Fatal(err)
		}
	}
	check("Build", map[*Node[int]]bool{n10: false, n20: false, n30: false, n40: false})

	seed(15, 16, 17, 18)
	check("Seed onto an empty window", map[*Node[int]]bool{n10: false, n20: true, n30: false})
	seed(19)
	check("Seed through the merge path", map[*Node[int]]bool{n20: true})

	seed(35, 36)
	n40.ConsumeN(1 << 30)
	seed(25)
	n30.Consume()
	check("ConsumeN and Consume down to empty", map[*Node[int]]bool{n30: false, n40: false})

	// n20 holds 15..19; each join takes a prefix of its window.
	a12 := mustInsert(t, r, 12)
	check("split taking none", map[*Node[int]]bool{a12: false, n20: true})
	a16 := mustInsert(t, r, 16)
	check("split taking some", map[*Node[int]]bool{a16: true, n20: true})
	a19 := mustInsert(t, r, 19)
	check("split taking all", map[*Node[int]]bool{a19: true, n20: false})
	a25 := mustInsert(t, r, 25)
	check("join on an idle arc", map[*Node[int]]bool{a25: false, n30: false})

	freed := a19.slot
	if err := r.Remove(a19); err != nil {
		t.Fatal(err)
	}
	check("Remove into an idle successor", map[*Node[int]]bool{n20: true})

	a35 := mustInsert(t, r, 35)
	if a35.slot != freed {
		t.Fatalf("join took slot %d, want the freed slot %d", a35.slot, freed)
	}
	check("reuse of a loaded leaver's slot", map[*Node[int]]bool{a35: false, n40: false})
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 100)
	if n.PredID() != u(100) {
		t.Error("lone node must be its own predecessor")
	}
	if err := r.Seed([]ids.ID{u(1), u(100), u(200)}); err != nil {
		t.Fatal(err)
	}
	if n.Workload() != 3 || r.TotalKeys() != 3 {
		t.Errorf("workload = %d", n.Workload())
	}
}

func TestSeedOwnership(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 10)
	mustInsert(t, r, 20)
	mustInsert(t, r, 30)
	seed := []ids.ID{u(5), u(10), u(11), u(20), u(25), u(31), u(200)}
	if err := r.Seed(seed); err != nil {
		t.Fatal(err)
	}
	n10, _ := r.Get(u(10))
	n20, _ := r.Get(u(20))
	n30, _ := r.Get(u(30))
	// node 10 owns (30, 10]: keys 5, 10, 31, 200
	if n10.Workload() != 4 {
		t.Errorf("node10 = %d keys: %v", n10.Workload(), n10.Keys())
	}
	if n20.Workload() != 2 || n30.Workload() != 1 {
		t.Errorf("node20 = %d, node30 = %d", n20.Workload(), n30.Workload())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Ring order for node 10 starts after its predecessor (30).
	ks := n10.Keys()
	want := []uint64{31, 200, 5, 10}
	for i, w := range want {
		if ks[i] != u(w) {
			t.Fatalf("node10 keys order = %v, want %v", ks, want)
		}
	}
}

func TestInsertSplitsKeys(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 100)
	if err := r.Seed([]ids.ID{u(10), u(20), u(30), u(40), u(90)}); err != nil {
		t.Fatal(err)
	}
	// New node at 25 takes keys in (100, 25] = {10, 20, 25? no 25 absent} -> {10, 20}.
	n25, err := r.Insert(u(25), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n25.Workload() != 2 {
		t.Errorf("n25 workload = %d, want 2 (%v)", n25.Workload(), n25.Keys())
	}
	n100, _ := r.Get(u(100))
	if n100.Workload() != 3 {
		t.Errorf("n100 workload = %d, want 3", n100.Workload())
	}
	if r.TotalKeys() != 5 {
		t.Errorf("total = %d", r.TotalKeys())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoveMergesKeys(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 10)
	mustInsert(t, r, 20)
	mustInsert(t, r, 30)
	if err := r.Seed([]ids.ID{u(5), u(15), u(16), u(25)}); err != nil {
		t.Fatal(err)
	}
	n20, _ := r.Get(u(20))
	if err := r.Remove(n20); err != nil {
		t.Fatal(err)
	}
	if n20.OnRing() {
		t.Error("removed node still claims to be on ring")
	}
	n30, _ := r.Get(u(30))
	// 30 now owns (10, 30]: keys 15, 16, 25.
	if n30.Workload() != 3 {
		t.Errorf("n30 workload = %d (%v)", n30.Workload(), n30.Keys())
	}
	if r.TotalKeys() != 4 || r.Len() != 2 {
		t.Errorf("total=%d len=%d", r.TotalKeys(), r.Len())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := r.Remove(n20); err != ErrRemoved {
		t.Errorf("double remove: %v", err)
	}
}

func TestRemoveLastNode(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 10)
	if err := r.Seed([]ids.ID{u(1)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(n); err != ErrLastNode {
		t.Errorf("removing last node with keys: %v", err)
	}
	n.Consume()
	if err := r.Remove(n); err != nil {
		t.Errorf("removing idle last node: %v", err)
	}
	if r.Len() != 0 {
		t.Error("ring not empty")
	}
}

func TestConsume(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 100)
	if _, ok := n.Consume(); ok {
		t.Error("consume on empty node succeeded")
	}
	if err := r.Seed([]ids.ID{u(10), u(20), u(30), u(40)}); err != nil {
		t.Fatal(err)
	}
	seen := map[ids.ID]bool{}
	for i := 0; i < 4; i++ {
		k, ok := n.Consume()
		if !ok {
			t.Fatalf("consume %d failed", i)
		}
		if seen[k] {
			t.Fatalf("key %v consumed twice", k)
		}
		seen[k] = true
	}
	if n.Workload() != 0 || r.TotalKeys() != 0 {
		t.Error("keys remain after full consumption")
	}
}

func TestConsumeModes(t *testing.T) {
	setup := func(mode ConsumeMode) *Node[int] {
		r := New[int]()
		r.SetConsumeMode(mode)
		n, err := r.Insert(u(100), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Keys in ring order from pred(=self): 101..110 wrapping.
		var seed []ids.ID
		for v := uint64(101); v <= 110; v++ {
			seed = append(seed, u(v))
		}
		if err := r.Seed(seed); err != nil {
			t.Fatal(err)
		}
		return n
	}

	n := setup(ConsumeFront)
	k1, _ := n.Consume()
	k2, _ := n.Consume()
	if k1 != u(101) || k2 != u(102) {
		t.Errorf("front mode got %v, %v", k1, k2)
	}

	n = setup(ConsumeBack)
	k1, _ = n.Consume()
	k2, _ = n.Consume()
	if k1 != u(110) || k2 != u(109) {
		t.Errorf("back mode got %v, %v", k1, k2)
	}

	n = setup(ConsumeAlternate)
	k1, _ = n.Consume()
	k2, _ = n.Consume()
	if k1 != u(101) || k2 != u(110) {
		t.Errorf("alternate mode got %v, %v", k1, k2)
	}
}

func TestConsumeModeSetting(t *testing.T) {
	r := New[int]()
	if r.ConsumeModeSetting() != ConsumeFront {
		t.Error("default mode must be ConsumeFront")
	}
	r.SetConsumeMode(ConsumeAlternate)
	if r.ConsumeModeSetting() != ConsumeAlternate {
		t.Error("SetConsumeMode did not stick")
	}
}

func TestConsumeN(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 100)
	if err := r.Seed([]ids.ID{u(1), u(2), u(3)}); err != nil {
		t.Fatal(err)
	}
	if got := n.ConsumeN(2); got != 2 {
		t.Errorf("ConsumeN(2) = %d", got)
	}
	if got := n.ConsumeN(5); got != 1 {
		t.Errorf("ConsumeN(5) on 1 remaining = %d", got)
	}
	if got := n.ConsumeN(5); got != 0 {
		t.Errorf("ConsumeN on empty = %d", got)
	}
}

func TestWorkloadsSnapshot(t *testing.T) {
	r := New[int]()
	mustInsert(t, r, 10)
	mustInsert(t, r, 20)
	if err := r.Seed([]ids.ID{u(15), u(16), u(5)}); err != nil {
		t.Fatal(err)
	}
	ws := r.Workloads()
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Errorf("Workloads = %v", ws)
	}
}

// TestKeyConservationUnderChurn is the central property: arbitrary
// interleavings of joins, leaves, and consumption never lose or duplicate
// keys, and ownership stays exactly (pred, self].
func TestKeyConservationUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(uint64(seed))
		r := New[int]()
		g := keys.NewGenerator(uint64(seed))
		for i := 0; i < 20; i++ {
			if _, err := r.Insert(g.Next(), i); err != nil {
				return false
			}
		}
		taskKeys := g.TaskKeys(500)
		if err := r.Seed(taskKeys); err != nil {
			return false
		}
		consumed := 0
		for step := 0; step < 300; step++ {
			switch rng.Intn(3) {
			case 0: // join at random ID
				if _, err := r.Insert(ids.Random(rng), 99); err != nil && err != ErrOccupied {
					return false
				}
			case 1: // leave random node (never the last)
				if r.Len() > 1 {
					n := r.At(rng.Intn(r.Len()))
					if err := r.Remove(n); err != nil {
						return false
					}
				}
			case 2: // random node consumes
				n := r.At(rng.Intn(r.Len()))
				if _, ok := n.Consume(); ok {
					consumed++
				}
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		return r.TotalKeys() == len(taskKeys)-consumed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSplitExactness verifies a join acquires exactly the keys in its arc,
// for many random configurations.
func TestSplitExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(uint64(seed))
		r := New[int]()
		g := keys.NewGenerator(uint64(seed) ^ 0xabcd)
		for i := 0; i < 5; i++ {
			if _, err := r.Insert(g.Next(), i); err != nil {
				return false
			}
		}
		if err := r.Seed(g.TaskKeys(200)); err != nil {
			return false
		}
		id := ids.Random(rng)
		owner := r.Owner(id)
		beforeKeys := owner.Keys()
		pred := owner.PredID()
		wantMine := 0
		for _, k := range beforeKeys {
			if ids.BetweenRightIncl(k, pred, id) {
				wantMine++
			}
		}
		n, err := r.Insert(id, 9)
		if err == ErrOccupied {
			return true
		}
		if err != nil {
			return false
		}
		return n.Workload() == wantMine &&
			owner.Workload() == len(beforeKeys)-wantMine &&
			r.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRemoveWrapAroundMerge(t *testing.T) {
	// Removing the highest node merges into the lowest (wrap).
	r := New[int]()
	mustInsert(t, r, 10)
	mustInsert(t, r, 200)
	if err := r.Seed([]ids.ID{u(150), u(190), u(5)}); err != nil {
		t.Fatal(err)
	}
	n200, _ := r.Get(u(200))
	if n200.Workload() != 2 {
		t.Fatalf("setup: n200 has %d", n200.Workload())
	}
	if err := r.Remove(n200); err != nil {
		t.Fatal(err)
	}
	n10, _ := r.Get(u(10))
	if n10.Workload() != 3 {
		t.Errorf("n10 workload = %d, want all 3", n10.Workload())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSeedTwiceMerges(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 100)
	if err := r.Seed([]ids.ID{u(1), u(3)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Seed([]ids.ID{u(2)}); err != nil {
		t.Fatal(err)
	}
	if n.Workload() != 3 || r.TotalKeys() != 3 {
		t.Errorf("workload = %d", n.Workload())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSplitKey(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 1000)
	if _, ok := n.SplitKey(); ok {
		t.Error("empty node must have no split key")
	}
	if err := r.Seed([]ids.ID{u(10)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.SplitKey(); ok {
		t.Error("single-key node must have no split key")
	}
	if err := r.Seed([]ids.ID{u(20), u(30), u(40)}); err != nil {
		t.Fatal(err)
	}
	// Keys 10,20,30,40: split at index (4-1)/2 = 1 -> key 20.
	id, ok := n.SplitKey()
	if !ok || id != u(20) {
		t.Fatalf("SplitKey = %v, %v; want 20", id, ok)
	}
	// Inserting at the split key takes exactly half the keys.
	m, err := r.Insert(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload() != 2 || n.Workload() != 2 {
		t.Errorf("split workloads = %d/%d, want 2/2", m.Workload(), n.Workload())
	}
}

func TestSplitKeyOddCount(t *testing.T) {
	r := New[int]()
	n := mustInsert(t, r, 1000)
	if err := r.Seed([]ids.ID{u(10), u(20), u(30), u(40), u(50)}); err != nil {
		t.Fatal(err)
	}
	id, ok := n.SplitKey()
	if !ok || id != u(30) {
		t.Fatalf("SplitKey = %v, want 30", id)
	}
	m, err := r.Insert(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload() != 3 || n.Workload() != 2 {
		t.Errorf("odd split = %d/%d, want 3/2", m.Workload(), n.Workload())
	}
}

func TestStaleNodePanics(t *testing.T) {
	r := New[int]()
	a := mustInsert(t, r, 10)
	mustInsert(t, r, 20)
	if err := r.Remove(a); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Succ on removed node must panic")
		}
	}()
	r.Succ(a, 1)
}

func BenchmarkInsertRemove(b *testing.B) {
	r := New[int]()
	g := keys.NewGenerator(1)
	for i := 0; i < 1000; i++ {
		if _, err := r.Insert(g.Next(), i); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Seed(g.TaskKeys(100000)); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids.Random(rng)
		n, err := r.Insert(id, 0)
		if err != nil {
			continue
		}
		if err := r.Remove(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOwner(b *testing.B) {
	r := New[int]()
	g := keys.NewGenerator(3)
	for i := 0; i < 10000; i++ {
		if _, err := r.Insert(g.Next(), i); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(4)
	probe := make([]ids.ID, 1024)
	for i := range probe {
		probe[i] = ids.Random(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(probe[i%len(probe)])
	}
}
