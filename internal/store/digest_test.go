package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// refArc is the reference model of an arc: the map-walking Digest and
// Metas the leaf arena replaced. It reads only the index, sorts its
// keys, and walks clockwise from the first key after lo while keys stay
// in (lo, hi], hashing key ‖ BE(ver) ‖ sum per key.
func refArc(s *Store, lo, hi ids.ID) ([sha256.Size]byte, []Meta) {
	s.mu.RLock()
	keys := make([]ids.ID, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var metas []Meta
	h := sha256.New()
	var leaf [ids.Bytes + 8 + sha256.Size]byte
	start := sort.Search(len(keys), func(i int) bool { return lo.Less(keys[i]) })
	for k := 0; k < len(keys); k++ {
		key := keys[(start+k)%len(keys)]
		if !ids.BetweenRightIncl(key, lo, hi) {
			break
		}
		e := s.index[key]
		copy(leaf[:ids.Bytes], key[:])
		binary.BigEndian.PutUint64(leaf[ids.Bytes:], e.ver)
		copy(leaf[ids.Bytes+8:], e.sum[:])
		h.Write(leaf[:])
		metas = append(metas, Meta{Key: key, Ver: e.ver, Sum: e.sum})
	}
	s.mu.RUnlock()
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d, metas
}

// checkReference compares every arc-reading method of s against refArc
// on arcs, and the arena itself against the index.
func checkReference(t *testing.T, s *Store, arcs [][2]ids.ID) {
	t.Helper()
	if err := checkArena(s); err != nil {
		t.Fatal(err)
	}

	_, all := refArc(s, ids.Zero, ids.Zero)
	keys := make([]ids.ID, len(all))
	for i, m := range all {
		keys[i] = m.Key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	if got := s.Keys(); len(got) != len(keys) || (len(keys) > 0 && !reflect.DeepEqual(got, keys)) {
		t.Fatalf("Keys() = %d keys, index holds %d", len(got), len(keys))
	}
	if s.Len() != len(keys) || s.Stats().Keys != len(keys) {
		t.Fatalf("Len=%d Stats.Keys=%d, want %d", s.Len(), s.Stats().Keys, len(keys))
	}

	for _, arc := range arcs {
		lo, hi := arc[0], arc[1]
		wantSum, wantMetas := refArc(s, lo, hi)
		for call := 0; call < 2; call++ { // the second call is a memo hit
			sum, n := s.Digest(lo, hi)
			if sum != wantSum || n != len(wantMetas) {
				t.Fatalf("Digest(%s, %s) call %d = %x/%d, reference %x/%d",
					lo.Short(), hi.Short(), call, sum[:4], n, wantSum[:4], len(wantMetas))
			}
		}
		metas, total := s.Metas(lo, hi, 1<<20)
		if total != len(wantMetas) || len(metas) != len(wantMetas) ||
			(len(metas) > 0 && !reflect.DeepEqual(metas, wantMetas)) {
			t.Fatalf("Metas(%s, %s) = %d/%d, reference %d", lo.Short(), hi.Short(), len(metas), total, len(wantMetas))
		}
		capped, total2 := s.Metas(lo, hi, 2)
		if total2 != total || len(capped) != min(2, total) ||
			(len(capped) > 0 && !reflect.DeepEqual(capped, wantMetas[:len(capped)])) {
			t.Fatalf("Metas(%s, %s, 2) = %d/%d", lo.Short(), hi.Short(), len(capped), total2)
		}
		if got := s.ArcCount(lo, hi); got != total {
			t.Fatalf("ArcCount(%s, %s) = %d, want %d", lo.Short(), hi.Short(), got, total)
		}
	}
}

// checkArena reports an arena that is unsorted, mis-sized, or whose
// leaves disagree with the index.
func checkArena(s *Store) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.lenLocked() != len(s.index) || len(s.leaves)%leafLen != 0 {
		return fmt.Errorf("arena holds %d bytes for %d keys", len(s.leaves), len(s.index))
	}
	for i := 0; i < s.lenLocked(); i++ {
		m := s.metaAt(i)
		e, ok := s.index[m.Key]
		if !ok || e.ver != m.Ver || e.sum != m.Sum {
			return fmt.Errorf("leaf %d (%s@%d) disagrees with index (present=%t ver=%d)", i, m.Key.Short(), m.Ver, ok, e.ver)
		}
		if i > 0 && !s.keyAt(i-1).Less(m.Key) {
			return fmt.Errorf("arena out of order at leaf %d", i)
		}
	}
	return nil
}

// modelArcs builds the arcs checkReference covers from a key pool: the
// full ring, full rings named by a stored key, arcs whose bounds are
// stored keys (wrapped and not), single-key and empty arcs.
func modelArcs(pool []ids.ID) [][2]ids.ID {
	arcs := [][2]ids.ID{
		{ids.Zero, ids.Zero},
		{ids.FromUint64(1), ids.MustHex("8000000000000000000000000000000000000000")},
		{ids.MustHex("c000000000000000000000000000000000000000"), ids.MustHex("4000000000000000000000000000000000000000")},
	}
	for i, k := range pool {
		next := pool[(i+1)%len(pool)]
		arcs = append(arcs,
			[2]ids.ID{k, k},        // whole ring starting after k
			[2]ids.ID{k.Pred(), k}, // exactly k
			[2]ids.ID{k, k.Succ()}, // empty unless k+1 is stored
			[2]ids.ID{k, next},     // bounds on stored keys
			[2]ids.ID{next, k},     // the complement, wrapping
		)
	}
	return arcs
}

// modelStep applies one mutating call, chosen by op, to *s over pool.
// Close+Open reopens dir; a memory store, which cannot reopen, puts
// instead.
func modelStep(t *testing.T, s **Store, dir string, pool []ids.ID, op, a, b byte) {
	t.Helper()
	key := pool[int(a)%len(pool)]
	value := []byte(fmt.Sprintf("v%d", b%5)) // few values: equal-version ties happen
	var err error
	switch op % 8 {
	case 0, 1:
		_, err = (*s).Put(key, value)
	case 2:
		_, err = (*s).PutAtLeast(key, uint64(b%12), value)
	case 3:
		_, _, err = (*s).Apply(Rec{Key: key, Ver: uint64(b % 6), Value: value})
	case 4:
		recs := make([]Rec, 0, 3)
		for j := 0; j < 3; j++ {
			recs = append(recs, Rec{
				Key: pool[(int(a)+j*int(b|1))%len(pool)], Ver: uint64((int(b) + j) % 5),
				Value: value, Tombstone: j == 2 && b%3 == 0,
			})
		}
		_, err = (*s).ApplyAll(recs)
	case 5:
		_, _, err = (*s).Delete(key)
	case 6:
		err = (*s).Compact()
	case 7:
		if dir == "" {
			_, err = (*s).Put(key, value)
			break
		}
		if err = (*s).Close(); err == nil {
			*s, err = Open(dir, Options{SegmentBytes: 256})
		}
	}
	if err != nil {
		t.Fatalf("op %d on %s: %v", op%8, key.Short(), err)
	}
}

// modelPool is a small key pool that includes both ends of the ID space.
func modelPool(rng *xrand.Rand, n int) []ids.ID {
	pool := []ids.ID{ids.Zero, ids.Zero.Pred()}
	for len(pool) < n {
		pool = append(pool, ids.Random(rng))
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].Less(pool[j]) })
	return pool
}

// TestDigestMatchesReference drives a file-backed store through a
// seeded history of every mutating call — including compaction and
// close/reopen — and after every step holds Digest (twice, so the
// second call is a memo hit), Metas, ArcCount and Keys to the
// map-walking reference model.
func TestDigestMatchesReference(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	rng := xrand.NewStream(41, 0)
	pool := modelPool(rng, 12)
	arcs := modelArcs(pool)
	checkReference(t, s, arcs) // the empty store
	for step := 0; step < 400; step++ {
		r := rng.Uint64()
		modelStep(t, &s, dir, pool, byte(r), byte(r>>8), byte(r>>16))
		checkReference(t, s, arcs)
	}
}

// FuzzDigestModel is TestDigestMatchesReference with a fuzz-chosen
// history on a memory store: three bytes per step.
func FuzzDigestModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 3, 1, 3, 3, 9, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		s, err := Open("", Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		pool := modelPool(xrand.NewStream(42, 0), 6)
		arcs := modelArcs(pool)
		for i := 0; i+2 < len(ops); i += 3 {
			modelStep(t, &s, "", pool, ops[i], ops[i+1], ops[i+2])
			checkReference(t, s, arcs)
		}
	})
}

// TestDigestConcurrent digests several arcs from several goroutines
// while others write, so the race detector sees the memo shared; once
// the writers stop, every arc must agree with the reference again.
func TestDigestConcurrent(t *testing.T) {
	s := open(t, "", Options{})
	pool := modelPool(xrand.NewStream(46, 0), 16)
	arcs := modelArcs(pool)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := pool[(i*7+w)%len(pool)]
				var err error
				if i%5 == 4 {
					_, _, err = s.Delete(key)
				} else {
					_, err = s.Put(key, []byte{byte(i), byte(w)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				arc := arcs[(i+r*11)%len(arcs)]
				s.Digest(arc[0], arc[1])
			}
		}(r)
	}
	wg.Wait()
	checkReference(t, s, arcs)
}

// TestDigestGolden pins the wire-visible digest bytes: the constants
// were recorded with the map-walking digest, before the leaf arena, so
// a mixed ring of old and new nodes still compares equal.
func TestDigestGolden(t *testing.T) {
	s := open(t, "", Options{})
	rng := xrand.NewStream(21, 0)
	var keys []ids.ID
	for i := 0; i < 64; i++ {
		k := ids.Random(rng)
		keys = append(keys, k)
		if _, err := s.Put(k, []byte(fmt.Sprintf("golden-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(keys); i += 5 {
		if _, err := s.Put(keys[i], []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(keys); i += 7 {
		if _, _, err := s.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Apply(Rec{Key: keys[2], Ver: 9, Value: []byte("replicated")}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lo, hi ids.ID
		sum    string
		n      int
	}{
		{ids.Zero, ids.Zero, "3c6b13ad043426626d83a647c5d7b9fdb5f2332f17977c860ea136b38b643ee0", 55},
		{ids.FromUint64(1), ids.MustHex("8000000000000000000000000000000000000000"),
			"b31c2fe2198fb59e1ab880eea7c089c9c2c4756ef072d615a9914e179fd4e8eb", 28},
		{ids.MustHex("c000000000000000000000000000000000000000"), ids.MustHex("4000000000000000000000000000000000000000"),
			"43c788864044a1b5b11ca008fb7b35a507cec56b109fc664f199050b47293660", 24},
		{keys[3], keys[3], "51cdd9eb92cb84e94ad2eb496fdce4895d964bb32a8fadd68b84aaa3720e0c88", 55},
	} {
		sum, n := s.Digest(c.lo, c.hi)
		if got := hex.EncodeToString(sum[:]); got != c.sum || n != c.n {
			t.Errorf("Digest(%s, %s) = %s/%d, golden %s/%d", c.lo.Short(), c.hi.Short(), got, n, c.sum, c.n)
		}
	}
}

// TestDigestAllocs: a digest allocates nothing, hit or miss, and Metas
// allocates only its result.
func TestDigestAllocs(t *testing.T) {
	s := open(t, "", Options{})
	fill(t, s, xrand.NewStream(43, 0), 256)
	lo, hi := ids.MustHex("c000000000000000000000000000000000000000"), ids.MustHex("4000000000000000000000000000000000000000")
	s.Digest(lo, hi) // creates the memo's hasher
	if got := testing.AllocsPerRun(100, func() { s.Digest(lo, hi) }); got != 0 {
		t.Errorf("Digest hit allocates %v, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		s.gen++ // what a write does to the memo, without the write's own allocations
		s.mu.Unlock()
		s.Digest(lo, hi)
	}); got != 0 {
		t.Errorf("Digest miss allocates %v, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { s.Metas(lo, hi, 1<<20) }); got != 1 {
		t.Errorf("Metas allocates %v, want 1 (its result)", got)
	}
	if got := testing.AllocsPerRun(100, func() { s.ArcCount(lo, hi) }); got != 0 {
		t.Errorf("ArcCount allocates %v, want 0", got)
	}
}

// BenchmarkDigest times a whole-ring digest of 2 048 keys: hit repeats
// it on an unchanged store, miss puts one key between calls. The store
// is file-backed (without fsync) because a memory segment copies itself
// on every append, which would swamp the digest.
func BenchmarkDigest(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	rng := xrand.NewStream(44, 0)
	keys := make([]ids.ID, 2048)
	value := make([]byte, 64)
	for i := range keys {
		keys[i] = ids.Random(rng)
		if _, err := s.Put(keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Digest(ids.Zero, ids.Zero)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Put(keys[i%len(keys)], value); err != nil {
				b.Fatal(err)
			}
			s.Digest(ids.Zero, ids.Zero)
		}
	})
}
