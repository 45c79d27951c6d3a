package keys

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// kernelAvailable records the start-up CPUID result before any test
// flips useSHANI.
var kernelAvailable = useSHANI

// keyPath is one way Generator.fill can hash: the crypto/sha1 loop, or the
// SHA-NI kernel on an amd64 CPU that has it.
type keyPath struct {
	name  string
	shani bool
}

func keyPaths() []keyPath {
	paths := []keyPath{{"portable", false}}
	if kernelAvailable {
		paths = append(paths, keyPath{"sha-ni", true})
	}
	return paths
}

// onPath runs f with Generator.fill forced onto p.
func onPath(p keyPath, f func()) {
	defer func(old bool) { useSHANI = old }(useSHANI)
	useSHANI = p.shani
	f()
}

// definedKey is the definition every path must meet: crypto/sha1 of
// the 16 bytes salt‖i, both big-endian.
func definedKey(salt, i uint64) ids.ID {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], salt)
	binary.BigEndian.PutUint64(buf[8:], i)
	return sha1.Sum(buf[:])
}

// checkKeys hashes n keys into a slice one longer, so a write past
// out[n-1] shows up in the sentinel, and compares each with definedKey.
func checkKeys(t testing.TB, p keyPath, salt, from uint64, n int) {
	t.Helper()
	sentinel := ids.ID{0xde, 0xad}
	out := make([]ids.ID, n+1)
	out[n] = sentinel
	onPath(p, func() { NewGenerator(salt).fill(out[:n], from) })
	for k, got := range out[:n] {
		if want := definedKey(salt, from+uint64(k)); got != want {
			t.Fatalf("%s: SHA-1(%#x‖%#x) = %v, crypto/sha1 says %v", p.name, salt, from+uint64(k), got, want)
		}
	}
	if out[n] != sentinel {
		t.Fatalf("%s: hashing %d keys wrote past the slice", p.name, n)
	}
}

// TestKeyHashMatchesCryptoSHA1 checks every hashing path against
// crypto/sha1 itself rather than against another output of the same
// path: random inputs, counters on both sides of the 32- and 64-bit
// boundaries (the last wraps to 0), lengths around one chunk, and the
// generator's entry points. It logs the paths it checked, so a run on a
// CPU without SHA-NI is not read as covering the kernel.
func TestKeyHashMatchesCryptoSHA1(t *testing.T) {
	rng := xrand.New(20)
	for _, p := range keyPaths() {
		t.Logf("checking the %s path", p.name)
		for range 1000 {
			checkKeys(t, p, rng.Uint64(), rng.Uint64(), 1+rng.Intn(8))
		}
		for _, from := range []uint64{0, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64} {
			for _, salt := range []uint64{0, math.MaxUint64, rng.Uint64()} {
				checkKeys(t, p, salt, from, 3)
			}
		}
		for _, n := range []int{0, 1, 2, taskKeyChunk - 1, taskKeyChunk, taskKeyChunk + 1} {
			checkKeys(t, p, rng.Uint64(), rng.Uint64(), n)
		}
		onPath(p, func() {
			g := NewGenerator(31)
			if got, want := g.Next(), definedKey(31, 0); got != want {
				t.Fatalf("%s: Next = %v, crypto/sha1 says %v", p.name, got, want)
			}
			for k, got := range g.TaskKeys(taskKeyChunk + 3) {
				if want := definedKey(31, 1+uint64(k)); got != want {
					t.Fatalf("%s: TaskKeys key %d = %v, crypto/sha1 says %v", p.name, k, got, want)
				}
			}
		})
	}
	if !kernelAvailable {
		t.Log("no SHA-NI kernel on this CPU: the kernel was not checked")
	}
}

func FuzzKeyHash(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(1))
	f.Add(uint64(77), uint64(math.MaxUint32), uint16(3))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint16(2))
	f.Add(uint64(5), uint64(1<<40), uint16(taskKeyChunk+1))
	f.Fuzz(func(t *testing.T, salt, from uint64, n uint16) {
		for _, p := range keyPaths() {
			checkKeys(t, p, salt, from, int(n))
		}
	})
}

// TestKeyHashAllocs keeps hashing off the heap on every path: a trial's
// allocation count must repeat exactly (benchmarks' TestDigestStable),
// so neither the kernel nor its fallback may spill a block or a digest.
// AllocsPerRun runs at GOMAXPROCS 1, so TaskKeys takes its serial path.
func TestKeyHashAllocs(t *testing.T) {
	for _, p := range keyPaths() {
		onPath(p, func() {
			g := NewGenerator(8)
			if a := testing.AllocsPerRun(100, func() { g.Next() }); a != 0 {
				t.Errorf("%s: Next allocates %v times, want 0", p.name, a)
			}
			chunk := make([]ids.ID, taskKeyChunk)
			if a := testing.AllocsPerRun(10, func() { g.fill(chunk, 99) }); a != 0 {
				t.Errorf("%s: fill of one chunk allocates %v times, want 0", p.name, a)
			}
			if a := testing.AllocsPerRun(10, func() { g.TaskKeys(3*taskKeyChunk + 17) }); a != 1 {
				t.Errorf("%s: TaskKeys allocates %v times, want 1 (its output slice)", p.name, a)
			}
		})
	}
}
