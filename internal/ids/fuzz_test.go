package ids

import (
	"bytes"
	"math/big"
	"testing"
)

func FuzzFromHexRoundTrip(f *testing.F) {
	f.Add("deadbeef")
	f.Add("")
	f.Add("0")
	f.Add("ffffffffffffffffffffffffffffffffffffffff")
	f.Add("not hex at all")
	f.Fuzz(func(t *testing.T, s string) {
		id, err := FromHex(s)
		if err != nil {
			return // invalid input is fine; it just must not panic
		}
		back, err := FromHex(id.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", id.String(), err)
		}
		if back != id {
			t.Fatalf("round trip changed value: %v -> %v", id, back)
		}
	})
}

func FuzzArithmeticLaws(f *testing.F) {
	f.Add([]byte{1}, []byte{2})
	f.Add(bytes.Repeat([]byte{0xff}, 20), []byte{1})
	f.Add([]byte{}, bytes.Repeat([]byte{0xaa}, 25))
	// Carries and borrows across both word cuts (bytes 4 and 12).
	f.Add(bytes.Repeat([]byte{0xff}, 16), []byte{0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{1})
	f.Fuzz(func(t *testing.T, araw, braw []byte) {
		a, b := FromBytes(araw), FromBytes(braw)
		if a.Add(b).Sub(b) != a {
			t.Fatal("Add/Sub not inverse")
		}
		if a.Add(b) != b.Add(a) {
			t.Fatal("Add not commutative")
		}
		if a.Distance(b) != b.Sub(a) {
			t.Fatal("Distance definition violated")
		}
		// The word-wise Add, Sub and Half against math/big mod 2^160.
		x, y := new(big.Int).SetBytes(a[:]), new(big.Int).SetBytes(b[:])
		mod := new(big.Int).Lsh(big.NewInt(1), Bits)
		for _, c := range []struct {
			op   string
			got  ID
			want *big.Int
		}{
			{"Add", a.Add(b), new(big.Int).Add(x, y)},
			{"Sub", a.Sub(b), new(big.Int).Sub(x, y)},
			{"Sub", b.Sub(a), new(big.Int).Sub(y, x)},
			{"Half", a.Half(), new(big.Int).Rsh(x, 1)},
			{"Half", b.Half(), new(big.Int).Rsh(y, 1)},
		} {
			var want ID
			c.want.Mod(c.want, mod).FillBytes(want[:])
			if c.got != want {
				t.Fatalf("%s on %v, %v = %v, math/big says %v", c.op, a, b, c.got, want)
			}
		}
		// Between complement law for distinct points.
		if a != b {
			x := Midpoint(a, b)
			if x != a && x != b {
				if Between(x, a, b) == Between(x, b, a) {
					t.Fatal("Between complement violated")
				}
			}
		}
	})
}

// FuzzCompare pins the word-wise Compare and Less to the byte-wise
// definition, including on pairs that share any number of leading bytes
// and differ only in a later word — down to the last 4 bytes.
func FuzzCompare(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, byte(0))
	f.Add(bytes.Repeat([]byte{0xff}, 20), bytes.Repeat([]byte{0xff}, 20), byte(0))
	f.Add(bytes.Repeat([]byte{0x80}, 20), []byte{}, byte(19))
	f.Add(bytes.Repeat([]byte{0x7f}, 20), []byte{0xff, 0xff, 0xff, 0xff}, byte(16))
	f.Add(bytes.Repeat([]byte{0x01}, 20), []byte{0xff}, byte(8))
	f.Fuzz(func(t *testing.T, araw, braw []byte, keep byte) {
		a, b := FromBytes(araw), FromBytes(braw)
		// The fuzzer rarely finds 16 equal leading bytes on its own: copy
		// a's first keep bytes over b's so only the rest can differ.
		copy(b[:int(keep)%(Bytes+1)], a[:])
		for _, p := range [][2]ID{{a, b}, {b, a}, {a, a}} {
			x, y := p[0], p[1]
			want := bytes.Compare(x[:], y[:])
			if got := x.Compare(y); got != want {
				t.Fatalf("Compare(%v, %v) = %d, bytes.Compare says %d", x, y, got, want)
			}
			if got := x.Less(y); got != (want < 0) {
				t.Fatalf("Less(%v, %v) = %v, bytes.Compare says %d", x, y, got, want)
			}
		}
		if a.Less(b) && a.Prefix() > b.Prefix() {
			t.Fatalf("Prefix not monotone: %v < %v", a, b)
		}
	})
}

func FuzzUniformInRange(f *testing.F) {
	f.Add([]byte{10}, []byte{20}, uint64(1))
	f.Add(bytes.Repeat([]byte{0xff}, 20), []byte{5}, uint64(2))
	f.Fuzz(func(t *testing.T, araw, braw []byte, seed uint64) {
		a, b := FromBytes(araw), FromBytes(braw)
		src := &fuzzSource{state: seed}
		x, err := UniformInRange(src, a, b)
		if err == ErrEmptyRange {
			if a.Distance(b) != FromUint64(1) {
				t.Fatal("ErrEmptyRange on non-empty range")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !Between(x, a, b) {
			t.Fatalf("draw %v outside (%v, %v)", x, a, b)
		}
	})
}

type fuzzSource struct{ state uint64 }

func (s *fuzzSource) Uint64() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}
