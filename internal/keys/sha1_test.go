package keys

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// shaniAvailable and avx512Available record the start-up CPUID
// results before any test flips useSHANI or useAVX512.
var shaniAvailable, avx512Available = useSHANI, useAVX512

// keyPath is one way Generator.fill can hash: the crypto/sha1 loop, the
// SHA-NI kernel on an amd64 CPU that has it, or the AVX-512 kernel on
// one that has that, with the remainder below 16 keys on whichever of
// the other two the CPU runs.
type keyPath struct {
	name          string
	shani, avx512 bool
}

func keyPaths() []keyPath {
	paths := []keyPath{{"portable", false, false}}
	if shaniAvailable {
		paths = append(paths, keyPath{"sha-ni", true, false})
	}
	if avx512Available {
		paths = append(paths, keyPath{"avx512", shaniAvailable, true})
	}
	return paths
}

// onPath runs f with Generator.fill forced onto p.
func onPath(p keyPath, f func()) {
	defer func(shani, avx512 bool) { useSHANI, useAVX512 = shani, avx512 }(useSHANI, useAVX512)
	useSHANI, useAVX512 = p.shani, p.avx512
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

// checkKeys hashes n keys into a slice that starts one element into
// its backing array and ends one before its end, so a write on either
// side shows up in a sentinel, and compares each with definedKey.
func checkKeys(t testing.TB, p keyPath, salt, from uint64, n int) {
	t.Helper()
	sentinel := ids.ID{0xde, 0xad}
	buf := make([]ids.ID, n+2)
	buf[0], buf[n+1] = sentinel, sentinel
	out := buf[1 : n+1]
	onPath(p, func() { NewGenerator(salt).fill(out, from) })
	for k, got := range out {
		if want := definedKey(salt, from+uint64(k)); got != want {
			t.Fatalf("%s: SHA-1(%#x‖%#x) = %v, crypto/sha1 says %v", p.name, salt, from+uint64(k), got, want)
		}
	}
	if buf[0] != sentinel || buf[n+1] != sentinel {
		t.Fatalf("%s: hashing %d keys wrote outside the slice", p.name, n)
	}
}

// TestKeyHashMatchesCryptoSHA1 checks every hashing path against
// crypto/sha1 itself rather than against another output of the same
// path: random inputs, counters on both sides of the 32- and 64-bit
// boundaries at every lane position of a 16-key group (the last wraps
// to 0), lengths around one group and one chunk, and the generator's
// entry points. It logs the paths it checked, so a run on a CPU without
// SHA-NI or AVX-512 is not read as covering that kernel.
func TestKeyHashMatchesCryptoSHA1(t *testing.T) {
	rng := xrand.New(20)
	for _, p := range keyPaths() {
		t.Logf("checking the %s path", p.name)
		for range 1000 {
			checkKeys(t, p, rng.Uint64(), rng.Uint64(), 1+rng.Intn(40))
		}
		for j := uint64(1); j <= 16; j++ {
			for _, from := range []uint64{1<<32 - j, -j} {
				for _, salt := range []uint64{0, math.MaxUint64, rng.Uint64()} {
					checkKeys(t, p, salt, from, 40)
				}
			}
		}
		for _, n := range []int{0, 1, 2, 15, 16, 17, 31, 33, taskKeyChunk - 1, taskKeyChunk, taskKeyChunk + 1} {
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
	if !shaniAvailable {
		t.Log("no SHA-NI on this CPU: the sha-ni kernel was not checked")
	}
	if !avx512Available {
		t.Log("no AVX-512 on this CPU: the avx512 kernel was not checked")
	}
}

func FuzzKeyHash(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(1))
	f.Add(uint64(77), uint64(math.MaxUint32), uint16(3))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint16(2))
	f.Add(uint64(5), uint64(1<<40), uint16(taskKeyChunk+1))
	f.Add(uint64(9), uint64(1<<32-7), uint16(37))
	f.Fuzz(func(t *testing.T, salt, from uint64, n uint16) {
		for _, p := range keyPaths() {
			checkKeys(t, p, salt, from, int(n))
		}
	})
}

// TestKeyHashAllocs keeps hashing off the heap on every path: a trial's
// allocation count must repeat exactly (benchmarks' TestDigestStable),
// so neither kernel nor the fallback may spill a block or a digest.
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

// BenchmarkFill measures Generator.fill per key on each hashing path
// this CPU has, one taskKeyChunk-key chunk an iteration: the unit that
// TaskKeys and the seed sort hand to a worker.
func BenchmarkFill(b *testing.B) {
	for _, p := range keyPaths() {
		b.Run(p.name, func(b *testing.B) {
			g := NewGenerator(3)
			chunk := make([]ids.ID, taskKeyChunk)
			onPath(p, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.fill(chunk, uint64(i)*taskKeyChunk)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*taskKeyChunk), "ns/key")
		})
	}
}
