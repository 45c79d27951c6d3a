package chord

import (
	"fmt"
	"strings"

	"chordbalance/internal/ids"
)

// LookupTrace records the route one lookup took through the overlay.
type LookupTrace struct {
	Key   ids.ID
	Owner ids.ID
	// Path lists the node IDs visited, starting at the initiator and
	// ending at the owner's predecessor-side hop; len(Path)-1 == hops.
	Path []ids.ID
}

// String renders the trace as "a1b2c3d4 -> 5e6f7a8b -> ... => owner".
func (tr LookupTrace) String() string {
	var b strings.Builder
	for i, id := range tr.Path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(id.Short())
	}
	fmt.Fprintf(&b, " => %s", tr.Owner.Short())
	return b.String()
}

// OverlayStats summarizes the overlay's health.
type OverlayStats struct {
	AliveNodes int
	DeadNodes  int
	// TotalKeys counts stored entries including replicas.
	TotalKeys int
	// PrimaryKeys counts entries owned by their holder (in (pred, id]).
	PrimaryKeys int
	// MeanReplication is TotalKeys/PrimaryKeys: ~1+Replicas when repair
	// has caught up.
	MeanReplication float64
	// RingConsistent is true when VerifyRing passes.
	RingConsistent bool
	Messages       int
}

// Stats computes an OverlayStats snapshot.
func (nw *Network) Stats() OverlayStats {
	var s OverlayStats
	for _, n := range nw.nodes {
		if !n.alive {
			s.DeadNodes++
			continue
		}
		s.AliveNodes++
		s.TotalKeys += len(n.data)
		if n.hasPred {
			for k := range n.data {
				if ids.BetweenRightIncl(k, n.pred, n.id) {
					s.PrimaryKeys++
				}
			}
		}
	}
	if s.PrimaryKeys > 0 {
		s.MeanReplication = float64(s.TotalKeys) / float64(s.PrimaryKeys)
	}
	s.RingConsistent = nw.VerifyRing() == nil
	s.Messages = nw.TotalMessages()
	return s
}

// KeyDistribution returns how many primary keys each live node owns, in
// ring order — the protocol-level counterpart of Table I.
func (nw *Network) KeyDistribution() []int {
	alive := nw.AliveIDs()
	out := make([]int, len(alive))
	for i, id := range alive {
		n := nw.nodes[id]
		pred := alive[(i+len(alive)-1)%len(alive)]
		for k := range n.data {
			if len(alive) == 1 || ids.BetweenRightIncl(k, pred, id) {
				out[i]++
			}
		}
	}
	return out
}
