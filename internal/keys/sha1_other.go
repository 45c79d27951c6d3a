//go:build !amd64

package keys

import "chordbalance/internal/ids"

// useSHANI is false: only the amd64 build has the SHA-NI kernel.
var useSHANI = false

// fill sets out[i] to the stream's (from+i)-th identifier by
// crypto/sha1.
func (g *Generator) fill(out []ids.ID, from uint64) {
	sha1Portable(out, g.salt, from)
}
