// Package keys generates node identifiers and task keys the way the paper
// does: by feeding (pseudo-)random inputs through SHA-1, "a favorite for
// many distributed hash tables" (§III). It also provides the arc-length
// analysis that explains the skew Table I and Figure 1 measure on the
// ring.
package keys

import (
	"crypto/sha1"
	"encoding/binary"

	"chordbalance/internal/ids"
	"chordbalance/internal/parallel"
)

// HashUint64 returns SHA1(v) as a ring identifier, with v encoded
// big-endian — the paper's "feeding random numbers into the SHA1 hash
// function".
func HashUint64(v uint64) ids.ID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	sum := sha1.Sum(buf[:])
	return ids.FromBytes(sum[:])
}

// HashString returns SHA1(s) as a ring identifier, the scheme used for
// filenames and other textual keys.
func HashString(s string) ids.ID {
	sum := sha1.Sum([]byte(s))
	return ids.FromBytes(sum[:])
}

// Generator produces streams of SHA-1 identifiers from a deterministic
// counter with a per-generator salt, so separate generators (node IDs vs
// task keys, trial 17 vs trial 18) never collide on inputs.
type Generator struct {
	salt uint64
	next uint64
}

// NewGenerator returns a Generator whose stream is determined by salt.
func NewGenerator(salt uint64) *Generator {
	return &Generator{salt: salt}
}

// Next returns the next identifier in the stream.
func (g *Generator) Next() ids.ID {
	g.next++
	return g.at(g.next - 1)
}

// at returns the stream's i-th identifier, SHA-1(salt‖i): a pure
// function of i, so any part of the stream can be hashed anywhere.
func (g *Generator) at(i uint64) ids.ID {
	var id [1]ids.ID
	g.fill(id[:], i)
	return id[0]
}

// NodeIDs returns the stream's next n identifiers as node IDs. A
// repeat among them would be a SHA-1 collision, which no one can
// produce; ring.Build still rejects a repeated ID with ErrOccupied.
func (g *Generator) NodeIDs(n int) []ids.ID {
	out := make([]ids.ID, n)
	g.fill(out, g.next)
	g.next += uint64(n)
	return out
}

// taskKeyChunk is the slice of the counter range one TaskKeys claim
// hashes: a 100k-key trial splits into ~25 chunks, and the streamed
// per-tick arrivals (one chunk or less) stay serial.
const taskKeyChunk = 4096

// TaskKeys returns n task keys (duplicates allowed, as for real file
// chunks; SHA-1 makes them vanishingly rare anyway): exactly n calls of
// Next, with batches over one chunk hashed by the caller and
// internal/parallel's helpers, each chunk from its own counter indices.
func (g *Generator) TaskKeys(n int) []ids.ID {
	b := taskBatch{out: make([]ids.ID, n), g: g, base: g.next}
	g.next += uint64(n)
	parallel.Claim((n+taskKeyChunk-1)/taskKeyChunk, b, taskBatch.hash)
	return b.out
}

// taskBatch is one TaskKeys call: out[i] is the stream's (base+i)-th
// identifier.
type taskBatch struct {
	out  []ids.ID
	g    *Generator
	base uint64
}

// hash fills chunk c of the batch.
func (b taskBatch) hash(c int) {
	lo := c * taskKeyChunk
	b.g.fill(b.out[lo:min(len(b.out), lo+taskKeyChunk)], b.base+uint64(lo))
}

// Reserve takes the next n indices of the stream, as n calls of Next
// would, and returns a fill that writes keys from, from+1, ... of that
// range into dst. The fill is a pure function of its arguments, so
// disjoint ranges may be filled concurrently and in any order.
func (g *Generator) Reserve(n int) func(dst []ids.ID, from int) {
	base := g.next
	g.next += uint64(n)
	return func(dst []ids.ID, from int) { g.fill(dst, base+uint64(from)) }
}

// sha1Portable sets out[k] to SHA-1(salt‖from+k), both counters
// big-endian, through crypto/sha1: the definition every build's
// Generator.fill must match.
func sha1Portable(out []ids.ID, salt, from uint64) {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], salt)
	for k := range out {
		binary.BigEndian.PutUint64(buf[8:], from+uint64(k))
		out[k] = sha1.Sum(buf[:])
	}
}

// EvenIDs returns n identifiers spaced exactly evenly around the ring,
// starting at offset — the idealized placement of Figure 3.
func EvenIDs(n int, offset ids.ID) []ids.ID {
	if n <= 0 {
		return nil
	}
	out := make([]ids.ID, n)
	// step = 2^160 / n computed as repeated addition of floor plus
	// distribution of the remainder via scaled index arithmetic: use
	// id_i = offset + floor(i * 2^160 / n) by long multiplication on the
	// fraction i/n in 160-bit fixed point.
	for i := range out {
		out[i] = offset.Add(fraction(uint64(i), uint64(n)))
	}
	return out
}

// fraction returns floor(num/den * 2^160) as an ID, for 0 <= num < den.
func fraction(num, den uint64) ids.ID {
	if num == 0 {
		return ids.Zero
	}
	// Long division: compute num * 2^160 / den digit by digit, byte-wise.
	var out ids.ID
	rem := num
	for i := 0; i < ids.Bytes; i++ {
		rem <<= 8
		out[i] = byte(rem / den)
		rem %= den
	}
	return out
}
