package ids

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"chordbalance/internal/xrand"
)

func idFrom2(hi, lo uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[4:12], hi)
	binary.BigEndian.PutUint64(id[12:20], lo)
	return id
}

func TestFromBytes(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want ID
	}{
		{"empty", nil, Zero},
		{"short", []byte{0xab}, FromUint64(0xab)},
		{"exact", make([]byte, 20), Zero},
		{"long keeps tail", append(make([]byte, 5), Max[:]...), Max},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := FromBytes(c.in); got != c.want {
				t.Errorf("FromBytes(%x) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestHexRoundTrip(t *testing.T) {
	ids := []ID{Zero, Max, FromUint64(1), FromUint64(0xdeadbeef), MustHex("ffee")}
	for _, id := range ids {
		got, err := FromHex(id.String())
		if err != nil {
			t.Fatalf("FromHex(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("round trip %v -> %v", id, got)
		}
	}
}

func TestFromHexErrors(t *testing.T) {
	if _, err := FromHex("zz"); err == nil {
		t.Error("expected error for non-hex input")
	}
	if _, err := FromHex(string(make([]byte, 41))); err == nil {
		t.Error("expected error for oversized input")
	}
	// Odd-length strings are zero-padded, not rejected.
	got, err := FromHex("f")
	if err != nil || got != FromUint64(0xf) {
		t.Errorf("FromHex(\"f\") = %v, %v; want 0xf", got, err)
	}
}

func TestAddSubBasics(t *testing.T) {
	one := FromUint64(1)
	if got := Max.Add(one); got != Zero {
		t.Errorf("Max+1 = %v, want 0", got)
	}
	if got := Zero.Sub(one); got != Max {
		t.Errorf("0-1 = %v, want Max", got)
	}
	a := FromUint64(math.MaxUint64)
	want := MustHex("10000000000000000") // 2^64
	if got := a.Add(one); got != want {
		t.Errorf("carry across word: %v, want %v", got, want)
	}
	if got := want.Sub(one); got != a {
		t.Errorf("borrow across word: %v, want %v", got, a)
	}
}

func TestSuccPred(t *testing.T) {
	if Zero.Pred() != Max || Max.Succ() != Zero {
		t.Error("Succ/Pred must wrap around the ring")
	}
	x := FromUint64(42)
	if x.Succ().Pred() != x {
		t.Error("Succ then Pred must be identity")
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := idFrom2(ahi, alo), idFrom2(bhi, blo)
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := idFrom2(ahi, alo), idFrom2(bhi, blo)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistance(t *testing.T) {
	a, b := FromUint64(10), FromUint64(3)
	if got := b.Distance(a); got != FromUint64(7) {
		t.Errorf("Distance(3->10) = %v, want 7", got)
	}
	// Wrapping distance: from 10 clockwise to 3 goes the long way.
	want := Max.Sub(FromUint64(6)) // 2^160 - 7
	if got := a.Distance(b); got != want {
		t.Errorf("Distance(10->3) = %v, want %v", got, want)
	}
	if got := a.Distance(a); got != Zero {
		t.Errorf("Distance(a,a) = %v, want 0", got)
	}
}

func TestHalfDouble(t *testing.T) {
	if got := FromUint64(7).Half(); got != FromUint64(3) {
		t.Errorf("7/2 = %v, want 3", got)
	}
	if got := Max.Half().Double(); got != Max.Sub(FromUint64(1)) {
		t.Errorf("(Max/2)*2 = %v", got)
	}
	f := func(hi, lo uint64) bool {
		a := idFrom2(hi, lo)
		// doubling then halving loses only the top bit
		h := a.Half()
		return h.Double().Half() == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerOfTwo(t *testing.T) {
	if PowerOfTwo(0) != FromUint64(1) {
		t.Error("2^0 != 1")
	}
	if PowerOfTwo(64) != MustHex("10000000000000000") {
		t.Error("2^64 wrong")
	}
	if PowerOfTwo(159).Double() != Zero {
		t.Error("2^159 * 2 must wrap to 0")
	}
	for _, k := range []int{-1, 160} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PowerOfTwo(%d) must panic", k)
				}
			}()
			PowerOfTwo(k)
		}()
	}
}

func TestBetween(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	cases := []struct {
		x        uint64
		between  bool
		rightInc bool
		leftInc  bool
	}{
		{9, false, false, false},
		{10, false, false, true},
		{11, true, true, true},
		{19, true, true, true},
		{20, false, true, false},
		{21, false, false, false},
	}
	for _, c := range cases {
		x := FromUint64(c.x)
		if got := Between(x, a, b); got != c.between {
			t.Errorf("Between(%d,10,20) = %v", c.x, got)
		}
		if got := BetweenRightIncl(x, a, b); got != c.rightInc {
			t.Errorf("BetweenRightIncl(%d,10,20) = %v", c.x, got)
		}
		if got := BetweenLeftIncl(x, a, b); got != c.leftInc {
			t.Errorf("BetweenLeftIncl(%d,10,20) = %v", c.x, got)
		}
	}
}

func TestBetweenWrapping(t *testing.T) {
	// Interval (2^160-5, 5) wraps through zero.
	a := Max.Sub(FromUint64(4))
	b := FromUint64(5)
	for _, x := range []ID{Max, Zero, FromUint64(4)} {
		if !Between(x, a, b) {
			t.Errorf("Between(%v, %v, %v) = false, want true", x, a, b)
		}
	}
	for _, x := range []ID{a, b, FromUint64(6), Max.Sub(FromUint64(5))} {
		if Between(x, a, b) {
			t.Errorf("Between(%v, %v, %v) = true, want false", x, a, b)
		}
	}
}

func TestBetweenDegenerate(t *testing.T) {
	a := FromUint64(7)
	if Between(a, a, a) {
		t.Error("x == a must be excluded from the full-ring interval")
	}
	if !Between(FromUint64(8), a, a) {
		t.Error("any other point lies in (a, a)")
	}
	if !BetweenRightIncl(FromUint64(123), a, a) {
		t.Error("single-node ring owns every key")
	}
}

func TestBetweenComplementProperty(t *testing.T) {
	// For distinct a, b: every x != a, b is in exactly one of (a,b), (b,a).
	f := func(xlo, alo, blo uint64) bool {
		x, a, b := FromUint64(xlo), FromUint64(alo), FromUint64(blo)
		if a == b || x == a || x == b {
			return true
		}
		return Between(x, a, b) != Between(x, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMidpoint(t *testing.T) {
	if got := Midpoint(FromUint64(10), FromUint64(20)); got != FromUint64(15) {
		t.Errorf("Midpoint(10,20) = %v, want 15", got)
	}
	// Wrapping arc from Max-1 to 3 has width 5; midpoint = Max-1+2 = 0.
	a := Max.Sub(FromUint64(1))
	if got := Midpoint(a, FromUint64(3)); got != Zero.Add(FromUint64(0)) {
		t.Errorf("wrapped midpoint = %v, want 0", got)
	}
}

func TestMidpointContainmentProperty(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := idFrom2(ahi, alo), idFrom2(bhi, blo)
		if a.Distance(b).Compare(FromUint64(2)) < 0 {
			return true // arcs narrower than 2 have no interior midpoint
		}
		return BetweenRightIncl(Midpoint(a, b), a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArcFraction(t *testing.T) {
	half := PowerOfTwo(159)
	if got := ArcFraction(Zero, half); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half ring fraction = %v", got)
	}
	if got := ArcFraction(Zero, Zero); got != 1 {
		t.Errorf("full ring fraction = %v, want 1", got)
	}
	quarter := PowerOfTwo(158)
	if got := ArcFraction(half, half.Add(quarter)); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quarter arc = %v", got)
	}
}

func TestFloat64AndAngle(t *testing.T) {
	if Zero.Float64() != 0 {
		t.Error("Zero must map to 0.0")
	}
	if got := PowerOfTwo(159).Float64(); got != 0.5 {
		t.Errorf("2^159 -> %v, want 0.5", got)
	}
	x, y := Zero.XY()
	if math.Abs(x) > 1e-12 || math.Abs(y-1) > 1e-12 {
		t.Errorf("Zero.XY() = (%v,%v), want (0,1)", x, y)
	}
	x, y = PowerOfTwo(158).XY() // quarter turn
	if math.Abs(x-1) > 1e-12 || math.Abs(y) > 1e-12 {
		t.Errorf("quarter.XY() = (%v,%v), want (1,0)", x, y)
	}
}

func TestTextMarshaling(t *testing.T) {
	id := MustHex("0123456789abcdef0123456789abcdef01234567")
	b, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var got ID
	if err := got.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Errorf("text round trip: %v != %v", got, id)
	}
	if err := got.UnmarshalText([]byte("not hex")); err == nil {
		t.Error("expected unmarshal error")
	}
}

func TestRandomUniform(t *testing.T) {
	src := xrand.New(1)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Random(src).Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of uniform IDs = %v, want ~0.5", mean)
	}
}

func TestUniformInRange(t *testing.T) {
	src := xrand.New(7)
	a, b := FromUint64(100), FromUint64(200)
	for i := 0; i < 1000; i++ {
		x, err := UniformInRange(src, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Between(x, a, b) {
			t.Fatalf("UniformInRange produced %v outside (%v,%v)", x, a, b)
		}
	}
}

func TestUniformInRangeWrapping(t *testing.T) {
	src := xrand.New(9)
	a := Max.Sub(FromUint64(2))
	b := FromUint64(3)
	seen := map[ID]bool{}
	for i := 0; i < 500; i++ {
		x, err := UniformInRange(src, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Between(x, a, b) {
			t.Fatalf("%v outside wrapped range", x)
		}
		seen[x] = true
	}
	// The wrapped interval (Max-2, 3) = {Max-1, Max, 0, 1, 2}: 5 values.
	if len(seen) != 5 {
		t.Errorf("saw %d distinct values, want 5", len(seen))
	}
}

func TestUniformInRangeEmpty(t *testing.T) {
	src := xrand.New(3)
	a := FromUint64(5)
	if _, err := UniformInRange(src, a, a.Succ()); err != ErrEmptyRange {
		t.Errorf("expected ErrEmptyRange, got %v", err)
	}
}

func TestUniformInRangeFullRing(t *testing.T) {
	src := xrand.New(4)
	a := FromUint64(5)
	for i := 0; i < 100; i++ {
		x, err := UniformInRange(src, a, a)
		if err != nil {
			t.Fatal(err)
		}
		if x == a {
			t.Fatal("full-ring draw returned the excluded endpoint")
		}
	}
}

func TestModID(t *testing.T) {
	cases := []struct{ x, m, want uint64 }{
		{17, 5, 2},
		{5, 17, 5},
		{0, 3, 0},
		{math.MaxUint64, 10, math.MaxUint64 % 10},
	}
	for _, c := range cases {
		if got := modID(FromUint64(c.x), FromUint64(c.m)); got != FromUint64(c.want) {
			t.Errorf("modID(%d,%d) = %v, want %d", c.x, c.m, got, c.want)
		}
	}
	// Property over wide operands: result < m and (x - result) divisible
	// check via repeated subtraction identity x mod m == (x+m) mod m.
	f := func(xhi, xlo, mlo uint64) bool {
		if mlo == 0 {
			return true
		}
		x, m := idFrom2(xhi, xlo), FromUint64(mlo)
		r := modID(x, m)
		return r.Compare(m) < 0 && modID(x.Add(m), m) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShort(t *testing.T) {
	if got := MustHex("deadbeef00000000000000000000000000000000").Short(); got != "deadbeef" {
		t.Errorf("Short = %q", got)
	}
}

// byLess sorts identifiers through the by-value Less, the way every
// sort.Interface adapter in the repository calls it.
type byLess []ID

func (s byLess) Len() int           { return len(s) }
func (s byLess) Less(i, j int) bool { return s[i].Less(s[j]) }
func (s byLess) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// BenchmarkSortByLess is the measurement Less's comment quotes: 4096
// random identifiers through sort.Sort.
func BenchmarkSortByLess(b *testing.B) {
	rng := xrand.New(42)
	src := make([]ID, 4096)
	for i := range src {
		src[i] = Random(rng)
	}
	buf := make(byLess, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sort.Sort(buf)
	}
}

// BenchmarkUniformInRange measures how quickly a node can synthesize an
// identifier inside a target arc — the operation the paper's reference
// [21] shows to be "extremely quick", and the basis of every Sybil
// strategy.
func BenchmarkUniformInRange(b *testing.B) {
	rng := xrand.New(7)
	a, c := Random(rng), Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UniformInRange(rng, a, c); err != nil {
			b.Fatal(err)
		}
	}
}
