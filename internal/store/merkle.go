package store

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
	"sort"

	"chordbalance/internal/ids"
)

// Anti-entropy support: a replica pair compares a key arc by exchanging
// the SHA-256 digest of the arc's (key, version, value-sum) triples in
// clockwise order. Equal digests prove the replicas hold byte-identical
// state for the arc without moving a single value; a mismatch is
// narrowed by splitting the arc at its midpoint and recursing (see
// internal/netchord's sync loop and docs/STORAGE.md).
//
// The triples live in the leaf arena: one ascending byte slice of
// leafLen-byte leaves, key ‖ BE(version) ‖ value sum, exactly the bytes
// a digest hashes. An arc is one contiguous run of leaves (two when it
// wraps past zero), so a digest is one or two hash writes and never
// touches the index map. Digests are memoized by store generation, so
// an arc nobody wrote to since its last digest costs no hashing at all.

// leafLen is the size of one arena leaf.
const leafLen = ids.Bytes + 8 + sha256.Size

// memoSlots is the digest memo's size. A node digests its own primary
// arc and serves the digests of the arcs it replicates for Replicas−1
// predecessors, so this covers replica sets up to eight; the descent's
// sub-arcs take stale slots first.
const memoSlots = 8

// digestMemo caches arc digests. A slot is valid while its generation
// equals the store's; gen starts at 1, so a zero slot never matches.
type digestMemo struct {
	slots [memoSlots]struct {
		lo, hi ids.ID
		gen    uint64
		sum    [sha256.Size]byte
		count  int
	}
	next int // round-robin victim when no slot is stale
	h    hash.Hash
	out  [sha256.Size]byte // h.Sum's target, so a miss does not allocate
}

// Meta is one key's comparison metadata: enough to decide staleness
// (Ver, with Sum as the deterministic tie-break) without the value.
type Meta struct {
	Key ids.ID
	Ver uint64
	Sum [sha256.Size]byte
}

// Wins reports whether m supersedes other under the store's
// last-writer-wins rule.
func (m Meta) Wins(other Meta) bool {
	return wins(m.Ver, m.Sum, other.Ver, other.Sum)
}

// lenLocked is the live key count; caller holds mu.
func (s *Store) lenLocked() int { return len(s.leaves) / leafLen }

// keyAt is the key of leaf i; caller holds mu.
func (s *Store) keyAt(i int) ids.ID {
	return ids.ID(s.leaves[i*leafLen : i*leafLen+ids.Bytes])
}

// metaAt decodes leaf i; caller holds mu.
func (s *Store) metaAt(i int) Meta {
	leaf := s.leaves[i*leafLen : (i+1)*leafLen]
	return Meta{
		Key: ids.ID(leaf[:ids.Bytes]),
		Ver: binary.BigEndian.Uint64(leaf[ids.Bytes:]),
		Sum: [sha256.Size]byte(leaf[ids.Bytes+8:]),
	}
}

// findLocked returns the position of key's leaf, or the position it
// would be inserted at, and whether it is present; caller holds mu.
func (s *Store) findLocked(key ids.ID) (int, bool) {
	n := s.lenLocked()
	i := sort.Search(n, func(i int) bool { return !s.keyAt(i).Less(key) })
	return i, i < n && s.keyAt(i) == key
}

// afterLocked returns the position of the first leaf whose key is above
// x; caller holds mu.
func (s *Store) afterLocked(x ids.ID) int {
	i, found := s.findLocked(x)
	if found {
		i++
	}
	return i
}

// putLeaf installs key's leaf, in place when the key is present, and
// bumps the generation when the arena's bytes change. Caller holds mu
// for writing (or is single-threaded replay).
func (s *Store) putLeaf(key ids.ID, ver uint64, sum [sha256.Size]byte) {
	var leaf [leafLen]byte
	copy(leaf[:], key[:])
	binary.BigEndian.PutUint64(leaf[ids.Bytes:], ver)
	copy(leaf[ids.Bytes+8:], sum[:])
	i, found := s.findLocked(key)
	off := i * leafLen
	switch {
	case !found:
		s.leaves = slices.Insert(s.leaves, off, leaf[:]...)
	case [leafLen]byte(s.leaves[off:off+leafLen]) == leaf:
		return // a compaction copy: same version, same bytes
	default:
		copy(s.leaves[off:], leaf[:])
	}
	s.gen++
}

// dropLeaf removes key's leaf, if present. Caller holds mu for writing
// (or is single-threaded replay).
func (s *Store) dropLeaf(key ids.ID) {
	if i, found := s.findLocked(key); found {
		s.leaves = slices.Delete(s.leaves, i*leafLen, (i+1)*leafLen)
		s.gen++
	}
}

// arcLocked returns the clockwise arc (lo, hi] as the leaf position of
// its first key and its key count: the arc's leaves are at positions
// (start+k) mod lenLocked, so an arc is one run of leaves, two when it
// wraps past zero. lo == hi names the whole ring, starting after lo.
// Caller holds mu.
func (s *Store) arcLocked(lo, hi ids.ID) (start, count int) {
	n := s.lenLocked()
	start = s.afterLocked(lo)
	switch cmp := lo.Compare(hi); {
	case cmp == 0:
		return start, n
	case cmp < 0:
		return start, s.afterLocked(hi) - start
	default:
		return start, n - start + s.afterLocked(hi)
	}
}

// Digest returns the arc digest over (lo, hi] and the number of live
// keys it covers. Two stores return equal digests exactly when they
// hold the same keys at the same versions with the same value bytes.
func (s *Store) Digest(lo, hi ids.ID) ([sha256.Size]byte, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := &s.memo
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	victim := m.next
	for i := range m.slots {
		sl := &m.slots[i]
		if sl.gen != s.gen {
			victim = i
		} else if sl.lo == lo && sl.hi == hi {
			return sl.sum, sl.count
		}
	}
	if victim == m.next {
		m.next = (m.next + 1) % memoSlots
	}
	if m.h == nil {
		m.h = sha256.New()
	}
	start, count := s.arcLocked(lo, hi)
	end, n := start+count, s.lenLocked()
	m.h.Reset()
	_, _ = m.h.Write(s.leaves[start*leafLen : min(end, n)*leafLen]) // sha256 writes never fail
	_, _ = m.h.Write(s.leaves[:max(end-n, 0)*leafLen])
	m.h.Sum(m.out[:0])
	sl := &m.slots[victim]
	sl.lo, sl.hi, sl.gen, sl.sum, sl.count = lo, hi, s.gen, m.out, count
	return sl.sum, sl.count
}

// Metas returns up to max per-key metadata entries for the arc
// (lo, hi] in clockwise order, plus the arc's true key count (which may
// exceed len of the returned slice when the arc is larger than max).
func (s *Store) Metas(lo, hi ids.ID, max int) ([]Meta, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	start, total := s.arcLocked(lo, hi)
	if max = min(max, total); max <= 0 {
		return nil, total
	}
	out := make([]Meta, max)
	for k := range out {
		out[k] = s.metaAt((start + k) % s.lenLocked())
	}
	return out, total
}

// ArcCount returns the number of live keys in (lo, hi].
func (s *Store) ArcCount(lo, hi ids.ID) int {
	_, n := s.Metas(lo, hi, 0)
	return n
}

// ArcRecs reads up to limit full records for the arc (lo, hi] in
// clockwise order — the bulk-transfer path for join gifts, graceful
// leave, and replica reconciliation. Keys that vanish between the index
// snapshot and the value read are skipped.
func (s *Store) ArcRecs(lo, hi ids.ID, limit int) ([]Rec, error) {
	s.mu.RLock()
	start, count := s.arcLocked(lo, hi)
	arc := make([]ids.ID, max(0, min(limit, count)))
	for k := range arc {
		arc[k] = s.keyAt((start + k) % s.lenLocked())
	}
	s.mu.RUnlock()
	recs := make([]Rec, 0, len(arc))
	for _, key := range arc {
		value, ver, ok, err := s.Get(key)
		if err != nil {
			return recs, err
		}
		if !ok {
			continue
		}
		recs = append(recs, Rec{Key: key, Ver: ver, Value: value})
	}
	return recs, nil
}
