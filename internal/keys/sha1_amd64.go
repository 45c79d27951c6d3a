package keys

import "chordbalance/internal/ids"

// useSHANI reports whether the CPU has the SHA extensions (CPUID leaf 7,
// EBX bit 29) and SSSE3 (leaf 1, ECX bit 9), which sha1Fill needs.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ebx7&(1<<29) != 0
}

// cpuid executes the CPUID instruction for leaf and sub-leaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// sha1Fill sets out[k] to SHA-1(salt‖from+k) with the SHA-NI
// instructions, one compression of one in-register block per key.
//
//go:noescape
func sha1Fill(out []ids.ID, salt, from uint64)

// fill sets out[i] to the stream's (from+i)-th identifier: by the
// SHA-NI kernel where the CPU has one, by crypto/sha1 elsewhere.
func (g *Generator) fill(out []ids.ID, from uint64) {
	if useSHANI {
		sha1Fill(out, g.salt, from)
		return
	}
	sha1Portable(out, g.salt, from)
}
