package keys

import "chordbalance/internal/ids"

// useSHANI reports whether the CPU has the SHA extensions (CPUID leaf 7,
// EBX bit 29) and SSSE3 (leaf 1, ECX bit 9), which sha1Fill needs.
var useSHANI = hasSHANI()

// useAVX512 reports whether sha1Fill16 can run: the CPU has AVX512F
// and AVX512BW (leaf 7, EBX bits 16 and 30), and the OS saves the
// opmask and ZMM state (XCR0 bits 5-7, besides the XMM and YMM bits
// 1-2; leaf 1, ECX bit 27 says XGETBV may be read).
var useAVX512 = hasAVX512()

func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ebx7&(1<<29) != 0
}

func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	const osState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&osState != osState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0 && ebx7&(1<<30) != 0
}

// cpuid executes the CPUID instruction for leaf and sub-leaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register XCR0.
func xgetbv() (eax, edx uint32)

// sha1Fill sets out[k] to SHA-1(salt‖from+k) with the SHA-NI
// instructions, one compression of one in-register block per key.
//
//go:noescape
func sha1Fill(out []ids.ID, salt, from uint64)

// sha1Fill16 sets out[k] to SHA-1(salt‖from+k) with AVX-512, sixteen
// keys a pass, one in each dword lane. len(out) must be a multiple of
// 16.
//
//go:noescape
func sha1Fill16(out []ids.ID, salt, from uint64)

// fill sets out[i] to the stream's (from+i)-th identifier: the largest
// multiple of 16 by the AVX-512 kernel where it can run, and the rest
// by the SHA-NI kernel where the CPU has one, by crypto/sha1 elsewhere.
func (g *Generator) fill(out []ids.ID, from uint64) {
	if n := len(out) &^ 15; useAVX512 && n > 0 {
		sha1Fill16(out[:n], g.salt, from)
		out, from = out[n:], from+uint64(n)
	}
	if useSHANI {
		sha1Fill(out, g.salt, from)
		return
	}
	sha1Portable(out, g.salt, from)
}
