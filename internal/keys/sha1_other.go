//go:build !amd64

package keys

import "chordbalance/internal/ids"

// useSHANI and useAVX512 are false: only the amd64 build has the
// kernels.
var useSHANI, useAVX512 = false, false

// fill sets out[i] to the stream's (from+i)-th identifier by
// crypto/sha1.
func (g *Generator) fill(out []ids.ID, from uint64) {
	sha1Portable(out, g.salt, from)
}
