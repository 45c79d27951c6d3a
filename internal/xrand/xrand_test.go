package xrand

import (
	"fmt"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	s0, s1 := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 collided %d times", same)
	}
	// Same (seed, index) must reproduce.
	a, b := NewStream(7, 3), NewStream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("stream reproduction failed")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(5)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) must panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(11)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("IntRange(3,7) covered %d values, want 5", len(seen))
	}
	if r.IntRange(4, 4) != 4 {
		t.Error("degenerate range must return its endpoint")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(17)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
}

// TestPicksMatchesBool pins Picks to the loop of Bool calls it replaces:
// the same indices and the same generator state afterwards, for rates
// at and beyond both ends, NaN, a dyadic rate whose threshold is exact,
// the smallest and largest rates the threshold must still tell apart
// from 0 and 1, and the simulator's churn rates.
func TestPicksMatchesBool(t *testing.T) {
	const dyadic = 12345.0 / (1 << 53)
	rates := []float64{0, -0.5, 1, 1.5, math.NaN(), dyadic, 1e-300, 1 - 0x1p-53, 0.01, 0.001, 0.3}
	for _, p := range rates {
		for _, n := range []int{0, 1, 2000, 200_000} {
			a, b := New(uint64(n)+7), New(uint64(n)+7)
			var want []int32
			for i := range n {
				if a.Bool(p) {
					want = append(want, int32(i))
				}
			}
			got := b.Picks(nil, n, p)
			if len(got) != len(want) {
				t.Fatalf("Picks(n=%d, p=%v) picked %d, the Bool loop %d", n, p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Picks(n=%d, p=%v)[%d] = %d, the Bool loop %d", n, p, i, got[i], want[i])
				}
			}
			if *a != *b {
				t.Fatalf("Picks(n=%d, p=%v) left the generator at %v, the Bool loop at %v", n, p, b.s, a.s)
			}
		}
	}
	// At the threshold: a draw u equal to p·2^53 is not below p, and one
	// the next float above it is, because the threshold rounds p·2^53
	// up. Below 2^52 that next float leaves p·2^53 a fraction to round.
	seed := uint64(1)
	for New(seed).Uint64()>>11 >= 1<<52 {
		seed++
	}
	u := New(seed).Uint64() >> 11
	if got := New(seed).Picks(nil, 1, float64(u)/(1<<53)); len(got) != 0 {
		t.Fatalf("a draw equal to p was picked")
	}
	p := math.Nextafter(float64(u)/(1<<53), 1)
	if got := New(seed).Picks([]int32{9}, 1, p); len(got) != 2 || got[0] != 9 || got[1] != 0 {
		t.Fatalf("Picks = %v, want the draw just below p appended after dst's 9", got)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatal("exponential variate negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v", mean)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

// BenchmarkPicks compares one churn scan through Picks with the Bool
// loop it replaced, at the scan lengths of benchmarks/'s sim-paper-1k
// (2 000 hosts) and sim-scale-100k (200 000) at churn rate 0.01.
func BenchmarkPicks(b *testing.B) {
	const p = 0.01
	for _, n := range []int{2000, 200_000} {
		b.Run(fmt.Sprintf("picks-%d", n), func(b *testing.B) {
			r := New(1)
			var buf []int32
			for range b.N {
				buf = r.Picks(buf[:0], n, p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/draw")
		})
		b.Run(fmt.Sprintf("bool-%d", n), func(b *testing.B) {
			r := New(1)
			var buf []int32
			for range b.N {
				buf = buf[:0]
				for i := range n {
					if r.Bool(p) {
						buf = append(buf, int32(i))
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/draw")
		})
	}
}
