// Package ring implements the "oracle" Chord ring the simulator runs on:
// a totally ordered set of virtual nodes plus exact per-node task-key
// ownership, with the Chord invariant that a node owns the keys in
// (predecessor, self].
//
// The paper assumes nodes maintain perfectly fresh successor/predecessor
// lists through active, aggressive maintenance (§V); this package realizes
// that assumption directly, so joins and leaves move exactly the keys the
// protocol would move, without simulating the message exchange (the
// internal/netchord package runs the protocol itself and measures its
// costs).
//
// Key lists are kept in ring order ascending from the owner's predecessor.
// A join therefore splits a key list at a binary-searched index with zero
// copying (the two halves share the backing array, and owners only ever
// shrink their windows), and a leave concatenates the departing node's
// list onto its successor's.
//
// Hot-path performance (docs/PERFORMANCE.md): every node carries a
// self-repairing position hint, so Succ/Pred/PredID are O(1) between
// topology changes and never worse than one segment-local binary search
// after one, and Walk leaves the hint of every node it visits exact;
// searches are inlined (no sort.Search closures, zero allocations);
// Seed sorts each incoming batch by identifier once into
// one fresh arena — large batches in a two-phase radix pipeline that
// runs on internal/parallel's helpers, and SeedFrom hashes a generated
// batch straight into it instead of copying a finished slice — then
// hands every owner its contiguous run, found by galloping from its
// start (one O(log run) search per distinct owner, not a comparison
// per key), as its window in place, or merges it with the node's
// residual keys in a single two-run pass;
// Remove reuses the successor's consumed front (or hands the whole
// window over) instead of allocating a merged slice whenever it can;
// and a has-keys bit per arena slot lets a join on an arc with nothing
// left to split (late in a run, nearly every Sybil) load no neighbour.
//
// The ring order itself is stored as *segments*: parallel arrays of
// 8-byte ID prefixes and 4-byte slot indices into a stable node arena.
// Build picks a power-of-two segment count sized to the population
// (~64 nodes per segment, a single segment for small rings) and routes
// each identifier to the segment addressed by its top 16 bits, so
// segment order concatenated is exactly ascending ID order. Locating an
// identifier is a binary search over one segment's prefix array — one
// contiguous, cache-resident run of integers; a node is dereferenced
// only to break a tie between equal prefixes. A join or leave then
// splices one segment — an O(n/S) barrier-free memmove instead of the
// O(n) splice a flat order array pays, which is the difference between
// quadratic and near-linear total churn cost on 100k–1M-node rings.
package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"chordbalance/internal/ids"
	"chordbalance/internal/parallel"
)

// Errors returned by ring mutations.
var (
	ErrOccupied = errors.New("ring: identifier already occupied")
	ErrLastNode = errors.New("ring: cannot remove the last node while keys remain")
	ErrRemoved  = errors.New("ring: node no longer on the ring")
	ErrEmpty    = errors.New("ring: empty ring")
)

// ConsumeMode selects which end of its arc a node consumes keys from.
// The choice is invisible to totals but decides where the *remaining* keys
// sit inside an arc, which in turn decides how much work a later join or
// Sybil split acquires — a first-order effect on the neighbor-injection
// and invitation strategies (see DESIGN.md §3 and the consumption-order
// ablation bench).
type ConsumeMode int

const (
	// ConsumeFront works through the arc in ring order starting at the
	// predecessor edge, so remaining keys cluster toward the node's own
	// ID. This matches the paper's observed behavior (§VI-C: Sybils
	// placed mid-arc often acquire no work) and is the default.
	ConsumeFront ConsumeMode = iota
	// ConsumeBack works from the node's own ID backwards.
	ConsumeBack
	// ConsumeAlternate alternates ends, keeping remaining keys spread
	// across the arc — the least-biased model of a node that executes
	// tasks in arbitrary order.
	ConsumeAlternate
)

// Segment geometry: Build aims for about segTarget nodes per segment and
// never exceeds 1<<segMaxBits segments (the segment address is the ID's
// top 16 bits right-shifted, so 12 bits leaves at least a 4-bit shift).
//
// segTarget trades the splice's memmove (12 bytes per entry right of the
// insertion point) and the number of position hints each splice leaves
// stale against per-segment overhead (48 bytes of slice headers, one
// more length for At and the wrapping walks to step over). Measured on
// the random-injection world benchmarks/ calls sim-scale-100k (100k
// hosts, 2M tasks, best sim.Run of three, three interleaved rounds):
// 32 → 1.24 to 1.33 s, 64 → 1.28 to 1.36 s, 128 → 1.42 to 1.52 s, 256 →
// 1.50 to 1.60 s, 512 (the previous value) → 1.53 to 1.62 s; 10k hosts orders
// the same way and 1k hosts cannot tell them apart. 64 takes nearly all
// of the gain; halving again buys 3% for twice the segments.
const (
	segTarget  = 64
	segMaxBits = 12
)

// segment is one run of the ring order. The two arrays are parallel:
// entry i describes the segment's i-th node in ascending ID order.
type segment struct {
	// pfx[i] is the node's ID prefix (ids.ID.Prefix). Searches run over
	// this array alone; prefixes are monotone in the ID, so only entries
	// whose prefix equals the probe's need the full 20-byte comparison.
	pfx []uint64
	// slots[i] is the node's index in the ring's slots arena.
	slots []int32
}

// insert splices (p, slot) in at offset off.
func (g *segment) insert(off int, p uint64, slot int32) {
	g.pfx = append(g.pfx, 0)
	copy(g.pfx[off+1:], g.pfx[off:])
	g.pfx[off] = p
	g.slots = append(g.slots, 0)
	copy(g.slots[off+1:], g.slots[off:])
	g.slots[off] = slot
}

// remove splices the entry at offset off out.
func (g *segment) remove(off int) {
	copy(g.pfx[off:], g.pfx[off+1:])
	g.pfx = g.pfx[:len(g.pfx)-1]
	copy(g.slots[off:], g.slots[off+1:])
	g.slots = g.slots[:len(g.slots)-1]
}

// Ring is a set of virtual nodes ordered by identifier, each owning a
// contiguous arc of the key space. T is caller data attached to each node
// (the simulator stores its host bookkeeping there).
type Ring[T any] struct {
	// The ring order lives in segs: segment s holds, ascending by ID, the
	// prefixes and slots (indices into the stable slots arena) of every
	// node whose identifier's top 16 bits shifted right by segShift equal
	// s. That address is monotone in the ID, so iterating segments in
	// index order visits nodes in exactly ascending ID order. Keeping the
	// spliced arrays as plain integers instead of pointers makes every
	// join/leave splice a memmove with no GC write barriers, and
	// segmenting bounds each splice at one segment instead of the whole
	// ring. slots never moves an entry; freed slots are recycled LIFO
	// through free. loaded holds one has-keys bit per slot, set exactly
	// when that node's window keys[head:] is non-empty.
	slots    []*Node[T]
	free     []int32
	loaded   []uint64
	segs     []segment
	segShift uint
	count    int

	// memo remembers the most recent locate until the next splice, so
	// the callers that probe an identifier and then insert at it (the
	// simulator draws a free ID with Get, re-checks it with Get, then
	// calls Insert) pay for one search, not three.
	memo struct {
		id     ids.ID
		s, off int
		found  bool
		valid  bool
	}

	totalKeys int
	mode      ConsumeMode
}

// radixMin is the batch size from which sortedArena switches from one
// comparison sort on the caller to the two-phase radix pipeline. Below
// it, the fixed cost of the radix passes outweighs the comparison
// savings (streamed per-tick seed batches stay under this).
const radixMin = 4096

// seedChunk is how many keys one phase-1 claim of the radix pipeline
// fills and groups: 80 KiB of keys, which stay in L1/L2 from the fill
// to the grouping, and few enough that a chunk's offsets fit in uint16.
const seedChunk = 4096

// sortedArena returns a fresh, exactly-sized slice of the batch's n
// keys sorted ascending by identifier — the arena Seed carves owners'
// windows from. fill(dst, from) sets dst to the batch's keys from,
// from+1, ... and may run concurrently on disjoint ranges.
//
// Large batches run as the two phases of one parallel.ClaimPhases loop.
// Phase 1 takes one claim per seedChunk keys: it fills the chunk
// (hashing straight into the arena, which phase 2 overwrites later),
// counts its top bytes and groups it by top byte into tmp while it is
// still in cache, keeping the 256 group offsets. Phase 2 takes one
// claim per top byte: it sums that byte's offsets over the chunks into
// its place in the arena, gathers its group from every chunk, scatters
// it by second byte straight into that place, and sorts each two-byte
// bucket (sortBucket). Uniform SHA-1 keys spread evenly over the 64Ki
// buckets, so that is two O(n) passes instead of O(n log n) 20-byte
// comparisons. Equal keys are identical bytes, so the result is the
// order a comparison sort yields, whatever the core count or schedule.
func sortedArena(n int, fill func(dst []ids.ID, from int)) []ids.ID {
	arena := make([]ids.ID, n)
	if n < radixMin {
		fill(arena, 0)
		sort.Sort(idKeys(arena))
		return arena
	}
	chunks := (n + seedChunk - 1) / seedChunk
	sc := takeScratch(n, 257*chunks)
	p := radixPass{fill: fill, arena: arena, tmp: sc.tmp, offs: sc.offs, chunks: chunks}
	parallel.ClaimPhases(chunks, 256, p, radixPass.group, radixPass.place)
	putScratch(sc) // every claim has returned: phase 2 is done with it
	return arena
}

// radixScratch is one radix pass's scratch: tmp, one key per batch key,
// and offs. Phase 1 writes every entry of them that phase 2 reads, so
// reused scratch needs no clearing.
type radixScratch struct {
	tmp  []ids.ID
	offs []uint16
}

// seedScratch is the free list sortedArena takes its scratch from and
// returns it to, so a process that seeds many large batches (a sweep's
// trials, the benchmark's rounds) allocates the n-key tmp once, not per
// batch. It lives for the whole process and retains at most
// seedScratchMax entries — no more than the number of large seeds that
// ever ran at once — each as large as the largest batch that used it:
// after a 2M-key seed, 40 MB of keys and 246 KiB of offsets the collector
// cannot reclaim. A mutex rather than a sync.Pool guards it because a
// pool is emptied by garbage collections, and a trial's allocation
// count must not depend on when one ran.
var seedScratch struct {
	sync.Mutex
	free []radixScratch
}

const seedScratchMax = 4

// takeScratch returns scratch with len(tmp) == keys and len(offs) ==
// offs, reusing the free list's most recent entry where it is large
// enough.
func takeScratch(keys, offs int) radixScratch {
	seedScratch.Lock()
	var sc radixScratch
	if k := len(seedScratch.free); k > 0 {
		sc = seedScratch.free[k-1]
		seedScratch.free = seedScratch.free[:k-1]
	}
	seedScratch.Unlock()
	if cap(sc.tmp) < keys {
		sc.tmp = make([]ids.ID, keys)
	}
	if cap(sc.offs) < offs {
		sc.offs = make([]uint16, offs)
	}
	return radixScratch{sc.tmp[:keys], sc.offs[:offs]}
}

// putScratch returns sc to the free list unless it is full.
func putScratch(sc radixScratch) {
	seedScratch.Lock()
	if len(seedScratch.free) < seedScratchMax {
		seedScratch.free = append(seedScratch.free, sc)
	}
	seedScratch.Unlock()
}

// radixPass is sortedArena's state, shared by value with every claim.
// offs[b*chunks+c], for b up to 256, is the number of chunk c's keys
// whose top byte is below b: chunk c's group of top byte b spans
// offs[b*chunks+c] to offs[(b+1)*chunks+c] of its part of tmp, and top
// byte b starts at the sum over c in the arena. At 2M keys the 257
// uint16 rows take 246 KiB, less than the 64Ki int32 counters of a
// one-pass two-byte scatter.
type radixPass struct {
	fill       func(dst []ids.ID, from int)
	arena, tmp []ids.ID
	offs       []uint16
	chunks     int
}

// group is phase 1 for chunk c.
func (p radixPass) group(c int) {
	lo := c * seedChunk
	hi := min(len(p.arena), lo+seedChunk)
	in := p.arena[lo:hi:hi]
	p.fill(in, lo)
	var pos [256]int32
	for _, k := range in {
		pos[k[0]]++
	}
	var sum int32
	for b, cnt := range pos {
		p.offs[b*p.chunks+c] = uint16(sum)
		pos[b] = sum
		sum += cnt
	}
	p.offs[256*p.chunks+c] = uint16(sum)
	out := p.tmp[lo:hi:hi]
	for _, k := range in {
		out[pos[k[0]]] = k
		pos[k[0]]++
	}
}

// place is phase 2 for top byte b.
func (p radixPass) place(b int) {
	from, to := p.offs[b*p.chunks:][:p.chunks], p.offs[(b+1)*p.chunks:][:p.chunks]
	var lo, hi int
	for c := range from {
		lo += int(from[c])
		hi += int(to[c])
	}
	dst := p.arena[lo:hi:hi]
	// run returns chunk c's group of top byte b in tmp.
	run := func(c int) []ids.ID {
		return p.tmp[c*seedChunk+int(from[c]) : c*seedChunk+int(to[c])]
	}
	var pos [256]int32
	for c := range from {
		for _, k := range run(c) {
			pos[k[1]]++
		}
	}
	var sum int32
	for j, cnt := range pos {
		pos[j] = sum
		sum += cnt
	}
	for c := range from {
		for _, k := range run(c) {
			dst[pos[k[1]]] = k
			pos[k[1]]++
		}
	}
	// pos[j] is now the end of second byte j's bucket.
	var start int32
	for _, end := range pos {
		if end-start > 1 {
			sortBucket(dst[start:end])
		}
		start = end
	}
}

// sortBucket orders one radix bucket. Buckets are tiny for uniform keys
// (insertion sort); skewed workloads (Zipf duplicates) produce large
// buckets of mostly-identical keys, for which insertion sort is linear,
// but genuinely large mixed buckets fall back to the library sort.
// Insertion compares 8-byte prefix words, and whole IDs only on a tie.
func sortBucket(b []ids.ID) {
	if len(b) > 48 {
		sort.Sort(idKeys(b))
		return
	}
	for i := 1; i < len(b); i++ {
		k := b[i]
		p := binary.BigEndian.Uint64(k[:8])
		j := i - 1
		for ; j >= 0; j-- {
			if q := binary.BigEndian.Uint64(b[j][:8]); q < p || q == p && !k.Less(b[j]) {
				break
			}
			b[j+1] = b[j]
		}
		b[j+1] = k
	}
}

// SetConsumeMode selects the consumption order for all nodes on the ring.
func (r *Ring[T]) SetConsumeMode(m ConsumeMode) { r.mode = m }

// ConsumeModeSetting returns the ring's current consumption order.
func (r *Ring[T]) ConsumeModeSetting() ConsumeMode { return r.mode }

// Node is one virtual node on the ring. The zero value is not usable;
// nodes are created only by Ring.Insert and Ring.Build.
type Node[T any] struct {
	id ids.ID
	// seg is the node's segment, fixed for its lifetime (it is a pure
	// function of the immutable ID's top 16 bits and the ring's segment
	// shift). fromBack alternates the consumption end so that remaining
	// keys stay spread across the arc instead of piling up at one edge,
	// which would bias every later split. The two share the word the
	// 20-byte ID leaves half empty.
	seg      uint16
	fromBack bool

	Data T

	// keys[head:] are the unconsumed task keys this node owns, in ring
	// order ascending from the node's predecessor. The window only ever
	// shrinks (consumption) or is split/replaced (join/leave), so windows
	// from a split, or carved from one Seed arena, may safely share a
	// backing array: each stays inside its own region of it.
	keys []ids.ID
	head int

	// off is a self-repairing offset hint within the node's segment:
	// when segs[seg].slots[off] == slot it is exact and posOf is O(1).
	// Insert/Remove shift offsets without eagerly rewriting every hint to
	// their right (that would make each splice strictly more expensive
	// than its memmove); a stale hint is detected by the identity check
	// and repaired with one segment-local binary search on first use. See
	// docs/PERFORMANCE.md for the invariant. slot is the node's fixed
	// position in the ring's arena, assigned at insert and never moved
	// while the node is on the ring.
	off  int32
	slot int32

	r *Ring[T]
}

// New returns an empty ring.
func New[T any]() *Ring[T] {
	return &Ring[T]{segs: make([]segment, 1), segShift: 16}
}

// Len returns the number of nodes on the ring.
func (r *Ring[T]) Len() int { return r.count }

// TotalKeys returns the number of unconsumed keys across all nodes.
func (r *Ring[T]) TotalKeys() int { return r.totalKeys }

// Segments returns the number of order segments the ring order is split
// across (a power of two; 1 for incrementally built rings).
func (r *Ring[T]) Segments() int { return len(r.segs) }

// segOf returns the segment addressed by id's top 16 bits.
func (r *Ring[T]) segOf(id ids.ID) int {
	return (int(id[0])<<8 | int(id[1])) >> r.segShift
}

// node returns the node stored at segment position (s, off).
func (r *Ring[T]) node(s, off int) *Node[T] { return r.slots[r.segs[s].slots[off]] }

// isLoaded reports slot's has-keys bit.
func (r *Ring[T]) isLoaded(slot int32) bool { return r.loaded[slot>>6]>>(slot&63)&1 != 0 }

// setLoaded sets or clears slot's has-keys bit.
func (r *Ring[T]) setLoaded(slot int32, on bool) {
	if on {
		r.loaded[slot>>6] |= 1 << (slot & 63)
	} else {
		r.loaded[slot>>6] &^= 1 << (slot & 63)
	}
}

// searchIn returns the insertion offset for id within segment s: the
// first offset whose node ID is >= id. The binary search runs over the
// segment's prefix array and loads a node only when its prefix ties
// with id's; it is inlined (rather than using sort.Search) so the hot
// lookup paths stay allocation- and closure-free.
func (r *Ring[T]) searchIn(s int, id ids.ID) int {
	g := &r.segs[s]
	p := id.Prefix()
	lo, hi := 0, len(g.pfx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q := g.pfx[mid]; q < p || q == p && r.slots[g.slots[mid]].id.Less(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// locate returns id's segment, its insertion offset there, and whether
// the node at that offset has exactly that ID — answered from the prefix
// array unless the prefixes tie. The answer is remembered until the next
// splice.
func (r *Ring[T]) locate(id ids.ID) (s, off int, found bool) {
	if m := &r.memo; m.valid && m.id == id {
		return m.s, m.off, m.found
	}
	s = r.segOf(id)
	off = r.searchIn(s, id)
	g := &r.segs[s]
	found = off < len(g.pfx) && g.pfx[off] == id.Prefix() && r.slots[g.slots[off]].id == id
	r.memo.id, r.memo.s, r.memo.off, r.memo.found, r.memo.valid = id, s, off, found, true
	return s, off, found
}

// occupiedFrom resolves the possibly-virtual position (s, off) — off may
// equal len(segs[s]) — to the first occupied position at or after it,
// wrapping past the highest segment to the lowest. The ring must be
// non-empty.
func (r *Ring[T]) occupiedFrom(s, off int) (int, int) {
	for off >= len(r.segs[s].slots) {
		s++
		if s == len(r.segs) {
			s = 0
		}
		off = 0
	}
	return s, off
}

// occupiedBefore returns the last occupied position strictly before the
// possibly-virtual position (s, off), wrapping below the lowest segment
// to the highest. The ring must be non-empty.
func (r *Ring[T]) occupiedBefore(s, off int) (int, int) {
	for off == 0 {
		s--
		if s < 0 {
			s = len(r.segs) - 1
		}
		off = len(r.segs[s].slots)
	}
	return s, off - 1
}

// stepNext advances one node clockwise from the occupied position (s, off).
func (r *Ring[T]) stepNext(s, off int) (int, int) {
	return r.occupiedFrom(s, off+1)
}

// firstPos returns the position of the lowest-ID node. The ring must be
// non-empty.
func (r *Ring[T]) firstPos() (int, int) { return r.occupiedFrom(0, 0) }

// lastPos returns the position of the highest-ID node. The ring must be
// non-empty.
func (r *Ring[T]) lastPos() (int, int) {
	s := len(r.segs) - 1
	return r.occupiedBefore(s, len(r.segs[s].slots))
}

// At returns the i-th node in ascending ID order. It panics if i is out
// of range, mirroring slice indexing. It walks the segment lengths
// (O(segments)); hot paths address nodes by *Node, not by rank.
func (r *Ring[T]) At(i int) *Node[T] {
	if i >= 0 {
		for s := range r.segs {
			seg := r.segs[s].slots
			if i < len(seg) {
				return r.slots[seg[i]]
			}
			i -= len(seg)
		}
	}
	panic("ring: At index out of range")
}

// Get returns the node with exactly the given ID, if present. Like the
// position-hint repair in Succ and PredID it updates search state, so it
// must not run concurrently with other calls on the ring.
func (r *Ring[T]) Get(id ids.ID) (*Node[T], bool) {
	if s, off, found := r.locate(id); found {
		return r.node(s, off), true
	}
	return nil, false
}

// Owner returns the node responsible for key: the first node clockwise at
// or after the key. It returns nil on an empty ring.
func (r *Ring[T]) Owner(key ids.ID) *Node[T] {
	if r.count == 0 {
		return nil
	}
	s := r.segOf(key)
	s, off := r.occupiedFrom(s, r.searchIn(s, key)) // wraps past the highest ID to the lowest
	return r.node(s, off)
}

// posOf locates n on the ring: O(1) when n's offset hint is exact, one
// segment-local binary search (which also repairs the hint) when a
// splice has shifted it. It panics if n was removed; the caller holding
// a stale node is a logic error worth failing loudly on.
func (r *Ring[T]) posOf(n *Node[T]) (int, int) {
	if n.r != r {
		panic(ErrRemoved)
	}
	s := int(n.seg)
	seg := r.segs[s].slots
	if off := int(n.off); off < len(seg) && seg[off] == n.slot {
		return s, off
	}
	off := r.searchIn(s, n.id)
	if off >= len(seg) || seg[off] != n.slot {
		panic(fmt.Sprintf("ring: node %s not found at its position", n.id.Short()))
	}
	n.off = int32(off)
	return s, off
}

// Succ returns the k-th successor of n clockwise (k >= 1 typical; k == 0
// returns n itself). Wraps around the ring. Negative k walks
// counterclockwise; steps are taken along the shorter direction after
// reducing k modulo the ring size.
func (r *Ring[T]) Succ(n *Node[T], k int) *Node[T] {
	s, off := r.posOf(n)
	m := r.count
	k = ((k % m) + m) % m
	if 2*k > m {
		k -= m // walk the short way round
	}
	for ; k > 0; k-- {
		s, off = r.stepNext(s, off)
	}
	for ; k < 0; k++ {
		s, off = r.occupiedBefore(s, off)
	}
	return r.node(s, off)
}

// Pred returns the k-th predecessor of n counterclockwise.
func (r *Ring[T]) Pred(n *Node[T], k int) *Node[T] {
	return r.Succ(n, -k)
}

// Walk calls fn on the k nodes that follow n clockwise, nearest first
// (counterclockwise for negative k). It locates n once and takes one
// step per node visited, wrapping — and revisiting — when |k| exceeds
// the ring size. Each visited node's position hint is left exact, so
// fn's PredID on it, and later posOf calls until the next splice, cost
// O(1). fn must not change the ring's topology.
func (r *Ring[T]) Walk(n *Node[T], k int, fn func(*Node[T])) {
	s, off := r.posOf(n)
	for ; k > 0; k-- {
		s, off = r.stepNext(s, off)
		fn(r.hinted(s, off))
	}
	for ; k < 0; k++ {
		s, off = r.occupiedBefore(s, off)
		fn(r.hinted(s, off))
	}
}

// hinted returns the node at (s, off) with its position hint set to off.
func (r *Ring[T]) hinted(s, off int) *Node[T] {
	n := r.node(s, off)
	n.off = int32(off)
	return n
}

// Insert places a new node at id carrying data, splitting the key range of
// the current owner of id. It returns ErrOccupied if a node already has
// that ID.
func (r *Ring[T]) Insert(id ids.ID, data T) (*Node[T], error) {
	s, off, found := r.locate(id)
	if found {
		return nil, ErrOccupied
	}
	n := &Node[T]{id: id, Data: data, r: r}
	n.slot = r.alloc(n)
	n.seg, n.off = uint16(s), int32(off)
	if r.count > 0 {
		// The node that currently owns id (n's successor-to-be). It and
		// the predecessor — two cache misses — are loaded only when its
		// has-keys bit is set: an idle window (on late-run rings the
		// common case) has nothing to split and keeps its unread head.
		ss, soff := r.occupiedFrom(s, off)
		if sslot := r.segs[ss].slots[soff]; r.isLoaded(sslot) {
			succ := r.slots[sslot]
			active := succ.keys[succ.head:]
			// Split succ's keys: n takes those in (pred, id], i.e. the
			// active prefix whose ring distance from pred.id is <=
			// dist(pred, id).
			ps, poff := r.occupiedBefore(s, off)
			predID := r.node(ps, poff).id
			limit := predID.Distance(id)
			lo, hi := 0, len(active)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if limit.Less(predID.Distance(active[mid])) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			n.keys = active[:lo]
			succ.keys = active[lo:]
			succ.head = 0
			r.setLoaded(n.slot, lo > 0)
			r.setLoaded(sslot, lo < len(active))
		}
	}
	// Splice into the segment. Offset hints of the shifted nodes go
	// stale and self-repair on their next posOf; the copy moves plain
	// integers within one segment, so there is no write-barrier traffic
	// and the move is bounded by the segment length, not the ring size.
	r.segs[s].insert(off, id.Prefix(), n.slot)
	r.count++
	r.memo.valid = false
	return n, nil
}

// alloc places n in the slots arena, recycling a freed slot when one is
// available, and returns its slot index.
func (r *Ring[T]) alloc(n *Node[T]) int32 {
	if k := len(r.free); k > 0 {
		s := r.free[k-1]
		r.free = r.free[:k-1]
		r.slots[s] = n
		return s
	}
	r.slots = append(r.slots, n)
	if len(r.slots) > 64*len(r.loaded) {
		r.loaded = append(r.loaded, 0)
	}
	return int32(len(r.slots) - 1)
}

// Build populates an empty ring with len(nodeIDs) nodes in one pass:
// O(n log n) total, versus O(n^2) for n sequential Inserts. data[i] is
// attached to the node at nodeIDs[i], and the returned slice is in input
// order (not ring order). The ring must be empty and the IDs unique; no
// keys move because there are none yet — callers seed keys afterwards.
//
// Build also fixes the ring's segment geometry for the population:
// roughly segTarget nodes per segment, so later Insert/Remove splices
// touch one segment. Rings grown node-by-node from New keep a single
// segment, which is exactly the flat order array smaller rings want.
func (r *Ring[T]) Build(nodeIDs []ids.ID, data []T) ([]*Node[T], error) {
	if r.count != 0 {
		return nil, errors.New("ring: Build requires an empty ring")
	}
	if len(nodeIDs) != len(data) {
		return nil, fmt.Errorf("ring: Build got %d ids but %d data values", len(nodeIDs), len(data))
	}
	out := make([]*Node[T], len(nodeIDs))
	sorted := make([]*Node[T], len(nodeIDs))
	slab := make([]Node[T], len(nodeIDs)) // one allocation for the population
	for i := range nodeIDs {
		n := &slab[i]
		n.id, n.Data, n.r = nodeIDs[i], data[i], r
		out[i] = n
		sorted[i] = n
	}
	sort.Sort(nodesByID[T](sorted))
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].id == sorted[i].id {
			for _, m := range out {
				m.r = nil
			}
			return nil, ErrOccupied
		}
	}
	bits := 0
	for len(sorted)>>bits > segTarget && bits < segMaxBits {
		bits++
	}
	r.segShift = uint(16 - bits)
	r.segs = make([]segment, 1<<bits)
	r.slots = sorted
	r.loaded = make([]uint64, (len(sorted)+63)/64)
	r.free = r.free[:0]
	r.memo.valid = false
	// Segments are contiguous runs of the sorted order. Each takes its
	// run's share of one backing array per field, doubled: the nodes
	// sorted[i:j] get the region [2i, 2j), so a segment can double in
	// population before a splice has to reallocate it.
	pfx := make([]uint64, 2*len(sorted))
	slots := make([]int32, 2*len(sorted))
	for i := 0; i < len(sorted); {
		s := r.segOf(sorted[i].id)
		j := i + 1
		for j < len(sorted) && r.segOf(sorted[j].id) == s {
			j++
		}
		g := segment{pfx: pfx[2*i : 2*i : 2*j], slots: slots[2*i : 2*i : 2*j]}
		for off, n := range sorted[i:j] {
			n.slot, n.seg, n.off = int32(i+off), uint16(s), int32(off)
			g.pfx = append(g.pfx, n.id.Prefix())
			g.slots = append(g.slots, n.slot)
		}
		r.segs[s] = g
		i = j
	}
	r.count = len(sorted)
	return out, nil
}

// nodesByID sorts nodes ascending by identifier.
type nodesByID[T any] []*Node[T]

func (s nodesByID[T]) Len() int           { return len(s) }
func (s nodesByID[T]) Less(i, j int) bool { return s[i].id.Less(s[j].id) }
func (s nodesByID[T]) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Remove takes n off the ring, handing its unconsumed keys to its
// successor (Chord's failure/departure behavior under active backup).
// The hand-off crosses segment boundaries transparently: the successor
// is found by the wrapping position walk, so a departure at the edge of
// one segment hands its keys to the first node of the next non-empty
// segment exactly as a flat order array would. Removing the final node
// is only allowed once no keys remain.
func (r *Ring[T]) Remove(n *Node[T]) error {
	if n.r != r {
		return ErrRemoved
	}
	s, off := r.posOf(n)
	if w := n.Workload(); w > 0 {
		if r.count == 1 {
			return ErrLastNode
		}
		// n's keys precede succ's in ring order from n's predecessor. (A
		// node with nothing to hand over leaves without its successor
		// being loaded at all.)
		ss, soff := r.stepNext(s, off)
		succ := r.node(ss, soff)
		switch sw := succ.Workload(); {
		case sw == 0:
			// The successor is idle: hand the whole window over.
			succ.keys = n.keys
			succ.head = n.head
			r.setLoaded(succ.slot, true)
		case w <= succ.head:
			// The successor has consumed at least w keys off its front;
			// those slots belong exclusively to succ's window and are
			// dead, so n's keys slide in without allocating. (Windows
			// share backing arrays only via Insert splits, which keep
			// them disjoint; copy is memmove-safe regardless.)
			copy(succ.keys[succ.head-w:succ.head], n.keys[n.head:])
			succ.head -= w
		default:
			merged := make([]ids.ID, 0, w+sw)
			merged = append(merged, n.keys[n.head:]...)
			merged = append(merged, succ.keys[succ.head:]...)
			succ.keys = merged
			succ.head = 0
		}
	}
	r.segs[s].remove(off)
	r.count--
	r.memo.valid = false
	r.release(n)
	n.keys = nil
	return nil
}

// release detaches n from the ring and returns its arena slot to the
// free list, dropping the arena's reference so the node can be
// collected.
func (r *Ring[T]) release(n *Node[T]) {
	r.slots[n.slot] = nil
	r.setLoaded(n.slot, false)
	r.free = append(r.free, n.slot)
	n.r = nil
}

// idKeys implements sort.Interface over raw identifiers without
// closures; ties are identical 20-byte values, so the unstable sort
// cannot produce an observable reordering.
type idKeys []ids.ID

func (s idKeys) Len() int           { return len(s) }
func (s idKeys) Less(i, j int) bool { return s[i].Less(s[j]) }
func (s idKeys) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Seed distributes task keys to their owners. It may be called on a ring
// whose nodes already hold keys; new keys are merged in ring order. It
// returns ErrEmpty if the ring has no nodes. Seed never writes to
// taskKeys nor keeps a reference to it.
func (r *Ring[T]) Seed(taskKeys []ids.ID) error {
	return r.SeedFrom(len(taskKeys), func(dst []ids.ID, from int) { copy(dst, taskKeys[from:]) })
}

// SeedFrom is Seed for a batch of count keys that fill writes: fill(dst,
// from) must set dst to the batch's keys from, from+1, ..., and may be
// called concurrently on disjoint ranges, so a key source such as a
// hash stream fills the sort's own arena in parallel instead of a
// slice that Seed would then copy.
//
// The batch is sorted by absolute identifier once into a fresh arena
// (sortedArena); every owner's bucket is then a contiguous run of it,
// whose end is found by galloping from its start, one O(log run)
// search per *distinct* owner instead of a comparison per key. An owner
// with no residual keys takes its run as its window in place, so the
// arena is the windows' shared backing array — disjoint windows over
// one array, exactly what Insert splits already produce. The wrapping
// node (the first on the ring) owns two runs — keys above the last node
// and keys at or below itself — which concatenate, tail first, into
// exactly its ring-distance order from its predecessor. With a single
// node the two runs compose to the whole circle, so no special case is
// needed.
func (r *Ring[T]) SeedFrom(count int, fill func(dst []ids.ID, from int)) error {
	if r.count == 0 {
		return ErrEmpty
	}
	sorted := sortedArena(count, fill)
	fs, foff := r.firstPos()
	ls, loff := r.lastPos()
	first, last := r.node(fs, foff), r.node(ls, loff)
	headEnd := above(sorted, 0, len(sorted), first.id)
	tailStart := above(sorted, headEnd, len(sorted), last.id)
	// Middle segments: each run of keys in (pred, owner].
	for lo := headEnd; lo < tailStart; {
		os := r.segOf(sorted[lo])
		// The owner exists without wrapping: sorted[lo] > first.id and
		// <= last.id.
		os, ooff := r.occupiedFrom(os, r.searchIn(os, sorted[lo]))
		n := r.node(os, ooff)
		ps, poff := r.occupiedBefore(os, ooff)
		predID := r.node(ps, poff).id
		hi := above(sorted, lo+1, tailStart, n.id)
		n.mergeSeed(predID, sorted[lo:hi])
		lo = hi
	}
	// The wrapping node: tail segment (keys > last) precedes the head
	// segment (keys <= first) in ring order from its predecessor.
	if headEnd > 0 || tailStart < len(sorted) {
		run := sorted[tailStart:]
		switch {
		case len(run) == 0:
			run = sorted[:headEnd]
		case headEnd > 0: // the two runs sit at opposite ends of the arena
			comb := make([]ids.ID, 0, len(run)+headEnd)
			run = append(append(comb, run...), sorted[:headEnd]...)
		}
		first.mergeSeed(last.id, run)
	}
	r.totalKeys += count
	return nil
}

// above returns the first index in [lo, hi) of the ascending s whose
// key is above id, or hi. It gallops from lo — probes 1, 2, 4, ... keys
// ahead — and then bisects the last gap, so a run of k keys costs
// O(log k) comparisons however long s is.
func above(s []ids.ID, lo, hi int, id ids.ID) int {
	for step := 1; lo+step <= hi; step <<= 1 {
		p := lo + step - 1
		if id.Less(s[p]) {
			hi = p
			break
		}
		lo = p + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if id.Less(s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// mergeSeed merges the non-empty incoming run (ascending in ring
// distance from predID) with the node's residual keys (same order by
// invariant) into a fresh exactly-sized window.
func (n *Node[T]) mergeSeed(predID ids.ID, run []ids.ID) {
	n.r.setLoaded(n.slot, true)
	res := n.keys[n.head:]
	if len(res) == 0 {
		// Fast path: no residual keys — the run, a region of Seed's fresh
		// arena that no other window covers, is the new window in place.
		// The capacity cap keeps the window inside its own region.
		n.keys = run[:len(run):len(run)]
		n.head = 0
		return
	}
	out := make([]ids.ID, 0, len(run)+len(res))
	i, j := 0, 0
	for i < len(run) && j < len(res) {
		if predID.Distance(run[i]).Compare(predID.Distance(res[j])) <= 0 {
			out = append(out, run[i])
			i++
		} else {
			out = append(out, res[j])
			j++
		}
	}
	out = append(out, run[i:]...)
	out = append(out, res[j:]...)
	n.keys = out
	n.head = 0
}

// Workloads returns every node's residual key count in ring order.
func (r *Ring[T]) Workloads() []int {
	out := make([]int, 0, r.count)
	for s := range r.segs {
		for _, slot := range r.segs[s].slots {
			out = append(out, r.slots[slot].Workload())
		}
	}
	return out
}

// CheckInvariants verifies structural invariants; tests and the simulator's
// debug mode call it. It returns a descriptive error on the first
// violation found.
func (r *Ring[T]) CheckInvariants() error {
	total := 0
	seen := 0
	var prev *Node[T]
	if r.count > 0 {
		ls, loff := r.lastPos()
		prev = r.node(ls, loff) // the first node's predecessor wraps
	}
	for s := range r.segs {
		g := &r.segs[s]
		if len(g.pfx) != len(g.slots) {
			return fmt.Errorf("ring: segment %d has %d prefixes for %d slots", s, len(g.pfx), len(g.slots))
		}
		for off, slot := range g.slots {
			n := r.slots[slot]
			if n == nil {
				return fmt.Errorf("ring: segment %d offset %d points at a freed slot", s, off)
			}
			if g.pfx[off] != n.id.Prefix() {
				return fmt.Errorf("ring: segment %d offset %d prefix %016x is not node %s's", s, off, g.pfx[off], n.id.Short())
			}
			if off > 0 && g.pfx[off] < g.pfx[off-1] {
				return fmt.Errorf("ring: segment %d prefixes decrease at offset %d", s, off)
			}
			if n.slot != slot {
				return fmt.Errorf("ring: node %s slot field disagrees with order", n.id.Short())
			}
			if r.segOf(n.id) != s {
				return fmt.Errorf("ring: node %s stored in segment %d, addressed to %d", n.id.Short(), s, r.segOf(n.id))
			}
			if seen > 0 && !prev.id.Less(n.id) {
				return fmt.Errorf("ring: nodes out of order at segment %d offset %d", s, off)
			}
			if n.r != r {
				return fmt.Errorf("ring: node %s has stale ring pointer", n.id.Short())
			}
			if ps, poff := r.posOf(n); ps != s || poff != off {
				return fmt.Errorf("ring: node %s position hint does not repair to (%d,%d)", n.id.Short(), s, off)
			}
			var prevDist ids.ID
			for j, k := range n.keys[n.head:] {
				if r.count > 1 && !ids.BetweenRightIncl(k, prev.id, n.id) {
					return fmt.Errorf("ring: node %s holds foreign key %s", n.id.Short(), k.Short())
				}
				d := prev.id.Distance(k)
				if j > 0 && d.Compare(prevDist) < 0 {
					return fmt.Errorf("ring: node %s keys out of ring order", n.id.Short())
				}
				prevDist = d
			}
			if r.isLoaded(slot) != (n.Workload() > 0) {
				return fmt.Errorf("ring: node %s has-keys bit is %v with %d keys", n.id.Short(), r.isLoaded(slot), n.Workload())
			}
			total += n.Workload()
			prev = n
			seen++
		}
	}
	if seen != r.count {
		return fmt.Errorf("ring: segments hold %d nodes but count says %d", seen, r.count)
	}
	if total != r.totalKeys {
		return fmt.Errorf("ring: key count drift: counted %d, tracked %d", total, r.totalKeys)
	}
	for _, s := range r.free {
		if r.slots[s] != nil || r.isLoaded(s) {
			return fmt.Errorf("ring: free slot %d still holds a node or its has-keys bit", s)
		}
	}
	if live := len(r.slots) - len(r.free); live != r.count {
		return fmt.Errorf("ring: arena holds %d live nodes but order lists %d", live, r.count)
	}
	return nil
}

// ID returns the node's ring identifier.
func (n *Node[T]) ID() ids.ID { return n.id }

// OnRing reports whether the node is still part of its ring.
func (n *Node[T]) OnRing() bool { return n.r != nil }

// Workload returns the number of unconsumed keys the node owns.
func (n *Node[T]) Workload() int { return len(n.keys) - n.head }

// PredID returns the node's current predecessor ID (its own ID when it is
// alone on the ring). The arc (PredID, ID] is the node's responsibility.
func (n *Node[T]) PredID() ids.ID {
	s, off := n.r.posOf(n)
	ps, poff := n.r.occupiedBefore(s, off)
	return n.r.node(ps, poff).id
}

// Keys returns a copy of the node's unconsumed keys in ring order.
func (n *Node[T]) Keys() []ids.ID {
	return append([]ids.ID(nil), n.keys[n.head:]...)
}

// Consume removes and returns one task key from the end selected by the
// ring's ConsumeMode. ok is false when the node has no work.
func (n *Node[T]) Consume() (key ids.ID, ok bool) {
	if n.Workload() == 0 {
		return ids.Zero, false
	}
	back := false
	switch n.r.mode {
	case ConsumeBack:
		back = true
	case ConsumeAlternate:
		back = n.fromBack
		n.fromBack = !n.fromBack
	}
	if back {
		key = n.keys[len(n.keys)-1]
		n.keys = n.keys[:len(n.keys)-1]
	} else {
		key = n.keys[n.head]
		n.head++
	}
	if n.head == len(n.keys) {
		n.r.setLoaded(n.slot, false)
	}
	n.r.totalKeys--
	return key, true
}

// SplitKey returns the identifier that splits the node's *remaining* keys
// exactly in half: a new node inserted at the returned ID takes over
// ceil(w/2) keys. ok is false when the node holds fewer than two keys.
// This powers the paper's §VII extension where nodes may choose Sybil IDs
// freely instead of estimating by arc size.
func (n *Node[T]) SplitKey() (id ids.ID, ok bool) {
	w := n.Workload()
	if w < 2 {
		return ids.Zero, false
	}
	// Keys are in ring order from the predecessor; the key at the median
	// position is the last key the new (earlier) node would own.
	return n.keys[n.head+(w-1)/2], true
}

// ConsumeN consumes up to max keys and returns how many were consumed.
// It is the batched form of Consume: the whole batch is a constant-time
// window adjustment, with the exact end state (head, tail, alternation
// parity, total-key count) the equivalent sequence of Consume calls
// would leave.
func (n *Node[T]) ConsumeN(max int) int {
	if w := n.Workload(); max > w {
		max = w
	}
	if max <= 0 {
		return 0
	}
	switch n.r.mode {
	case ConsumeBack:
		n.keys = n.keys[:len(n.keys)-max]
	case ConsumeAlternate:
		// Alternating draws split the batch across both ends, with the
		// current side taking the extra key when max is odd. Front and
		// back removals commute, so applying them as two bulk moves
		// leaves the identical surviving window.
		first := (max + 1) / 2
		second := max / 2
		front, back := first, second
		if n.fromBack {
			front, back = second, first
		}
		n.head += front
		n.keys = n.keys[:len(n.keys)-back]
		if max%2 == 1 {
			n.fromBack = !n.fromBack
		}
	default: // ConsumeFront
		n.head += max
	}
	if n.head == len(n.keys) {
		n.r.setLoaded(n.slot, false)
	}
	n.r.totalKeys -= max
	return max
}
