package xrand

import (
	"math"
	"math/bits"
	"testing"
)

func TestSplitDeterministic(t *testing.T) {
	a, b := Split(42, 7), Split(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, streamID) diverged at step %d", i)
		}
	}
}

func TestSplitMatchesNewStream(t *testing.T) {
	// NewStream is documented as Split restricted to int indices; the two
	// must produce identical streams so existing trial seeding (and every
	// golden that depends on it) is unchanged by the Split API.
	for _, i := range []int{0, 1, 2, 17, 4095, -1} {
		a, b := NewStream(99, i), Split(99, uint64(i))
		for j := 0; j < 64; j++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("NewStream(99,%d) != Split(99,%d) at step %d", i, i, j)
			}
		}
	}
}

// TestSplitSeedRegression pins the derivation so a refactor cannot
// silently change every derived stream (which would invalidate any
// recorded result keyed by (seed, streamID)).
func TestSplitSeedRegression(t *testing.T) {
	cases := []struct {
		seed, streamID, want uint64
	}{
		{0, 0, 0x0fb1000633e9ec55},
		{0, 1, 0xcfb5edaa17e9b94b},
		{12345, 0, 0x4aba3cab69d2870e},
		{12345, 7, 0xd523a95c5a1043c2},
		{0xdeadbeef, 1 << 40, 0x7e4076de4250b05d},
	}
	for _, c := range cases {
		if got := SplitSeed(c.seed, c.streamID); got != c.want {
			t.Errorf("SplitSeed(%#x, %#x) = %#x, want %#x", c.seed, c.streamID, got, c.want)
		}
	}
}

func TestSplitStreamsDistinct(t *testing.T) {
	const streams = 256
	seen := make(map[uint64]uint64, streams+1)
	seen[New(31337).Uint64()] = math.MaxUint64 // the parent stream itself
	for id := uint64(0); id < streams; id++ {
		v := Split(31337, id).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d share first output %#x", prev, id, v)
		}
		seen[v] = id
	}
}

// TestSplitBitBalance checks each derived stream is individually
// unbiased: over many draws the fraction of set bits must sit near 1/2.
func TestSplitBitBalance(t *testing.T) {
	const (
		streams = 64
		draws   = 256
	)
	for id := uint64(0); id < streams; id++ {
		r := Split(1, id)
		ones := 0
		for i := 0; i < draws; i++ {
			ones += bits.OnesCount64(r.Uint64())
		}
		n := float64(draws * 64)
		frac := float64(ones) / n
		// Binomial(n, 1/2): sd of the fraction is 1/(2*sqrt(n)); allow 5
		// sigma so the fixed-seed test never flakes.
		if sigma := 1 / (2 * math.Sqrt(n)); math.Abs(frac-0.5) > 5*sigma {
			t.Errorf("stream %d bit fraction %.4f deviates from 0.5", id, frac)
		}
	}
}

// TestSplitCrossCorrelation checks sibling streams are pairwise
// decorrelated: aligned outputs of adjacent stream IDs (the worst case
// for a weak derivation) must agree on about half their bits.
func TestSplitCrossCorrelation(t *testing.T) {
	const (
		pairs = 64
		draws = 128
	)
	for id := uint64(0); id < pairs; id++ {
		a, b := Split(777, id), Split(777, id+1)
		agree := 0
		for i := 0; i < draws; i++ {
			agree += bits.OnesCount64(^(a.Uint64() ^ b.Uint64()))
		}
		n := float64(draws * 64)
		frac := float64(agree) / n
		if sigma := 1 / (2 * math.Sqrt(n)); math.Abs(frac-0.5) > 5*sigma {
			t.Errorf("streams %d and %d agree on %.4f of bits", id, id+1, frac)
		}
	}
}

// TestSplitSeedSensitivity checks the derivation avalanches: flipping
// one bit of either input flips about half the output bits.
func TestSplitSeedSensitivity(t *testing.T) {
	base := SplitSeed(0x0123456789abcdef, 42)
	for bit := 0; bit < 64; bit++ {
		d1 := bits.OnesCount64(base ^ SplitSeed(0x0123456789abcdef^(1<<bit), 42))
		d2 := bits.OnesCount64(base ^ SplitSeed(0x0123456789abcdef, 42^(1<<uint(bit))))
		if d1 < 10 || d1 > 54 || d2 < 10 || d2 > 54 {
			t.Errorf("bit %d: weak avalanche (seed flip %d, stream flip %d changed bits)", bit, d1, d2)
		}
	}
}
