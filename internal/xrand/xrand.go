// Package xrand provides small, fast, deterministic pseudo-random number
// generators for simulation work.
//
// The simulator runs hundreds of independent trials in parallel; each trial
// owns a private *Rand seeded from the trial index, so results are exactly
// reproducible regardless of goroutine scheduling. The generator is
// xoshiro256** seeded through SplitMix64, the standard recipe from
// Blackman & Vigna; it is not cryptographically secure and must never be
// used for anything but simulation.
package xrand

import (
	"math"
	"math/bits"
)

// splitMix64 advances the SplitMix64 state and returns the next output.
// It is used only to expand a single seed into the xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. It is not safe for concurrent use;
// give each goroutine its own instance (see NewStream).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed. Distinct seeds
// give statistically independent streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires a nonzero state; SplitMix64 output of any seed is
	// astronomically unlikely to be all zero, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// NewStream derives an independent generator for substream i of the given
// base seed. Use it to give each parallel trial its own deterministic RNG.
// It is Split restricted to int stream indices and produces the identical
// stream: NewStream(seed, i) == Split(seed, uint64(i)).
func NewStream(seed uint64, i int) *Rand {
	return Split(seed, uint64(i))
}

// Split derives an independent generator for the given 64-bit stream ID
// of the base seed. Distinct (seed, streamID) pairs give statistically
// independent streams, and the derivation is a pure function of its
// arguments — internal/streamload hands viewer i the stream
// Split(cfg.Seed, i) so per-viewer randomness is reproducible regardless
// of how many viewers run or in what order they are scheduled.
func Split(seed, streamID uint64) *Rand {
	return New(SplitSeed(seed, streamID))
}

// SplitSeed returns the derived 64-bit seed Split expands into a
// generator. Use it directly when a substream needs a plain seed (for
// example to parameterize a config) rather than a *Rand.
func SplitSeed(seed, streamID uint64) uint64 {
	// Mix the stream ID through SplitMix64 so that adjacent IDs do not
	// produce correlated xoshiro states.
	sm := seed
	_ = splitMix64(&sm)
	sm ^= 0x6a09e667f3bcc909 * (streamID + 1)
	return splitMix64(&sm)
}

// Uint64 returns the next 64 uniformly distributed bits. The rotates go
// through math/bits so they compile to single instructions and the whole
// generator fits the compiler's inlining budget. Picks repeats this
// step on locals for the simulator's per-host churn scan.
func (r *Rand) Uint64() uint64 {
	s1 := r.s[1]
	result := bits.RotateLeft64(s1*5, 7) * 9
	r.s[2] ^= r.s[0]
	r.s[3] ^= s1
	r.s[1] = s1 ^ r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= s1 << 17
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n(0)")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	ahi, alo := a>>32, a&mask
	bhi, blo := b>>32, b&mask
	t := ahi*blo + (alo*blo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += alo * bhi
	hi = ahi*bhi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Picks appends to dst the indices i in [0, n) for which the i-th of n
// successive Bool(p) calls would return true, and leaves the generator
// exactly where those calls would: no draw for p <= 0 or p >= 1, n
// draws otherwise. It is the simulator's churn scan — one Bernoulli
// draw per host per tick — with the state held in locals instead of
// reloaded and spilled around every draw. Float64() < p compares
// (u>>11)/2^53 with p; scaling both sides by 2^53 is exact, so the test
// is u>>11 < ceil(p·2^53) in integers. A NaN p draws and picks nothing,
// as Bool(NaN) does.
func (r *Rand) Picks(dst []int32, n int, p float64) []int32 {
	if p <= 0 {
		return dst
	}
	if p >= 1 {
		for i := range n {
			dst = append(dst, int32(i))
		}
		return dst
	}
	var thresh uint64
	if !math.IsNaN(p) {
		thresh = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range n {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		if u>>11 < thresh {
			dst = append(dst, int32(i))
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return dst
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
