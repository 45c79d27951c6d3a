package strategy

// This file implements the paper's §VII future-work directions as
// concrete strategies, so the repository can measure what the authors
// only conjecture:
//
//   - "An avenue for future work could consider the node strength as a
//     factor": StrengthInvitation and StrengthAwareRandom.
//   - "if we removed the assumption that nodes cannot choose their own
//     ID ... this presents even more strategies": TargetedInjection.

// StrengthInvitation is Invitation with the helper chosen by strength
// rather than by emptiness: among the qualifying predecessors (workload
// at or below the Sybil threshold, spare capacity) the *strongest* one
// answers the call, so work migrates toward machines that can actually
// chew through it — the fix §VII proposes for the heterogeneous slowdown.
type StrengthInvitation struct{}

// NewStrengthInvitation returns the strength-aware invitation strategy.
func NewStrengthInvitation() Strategy { return StrengthInvitation{} }

// Name implements Strategy.
func (StrengthInvitation) Name() string { return "strength-invitation" }

// Decide implements Strategy.
func (StrengthInvitation) Decide(w World) {
	invite(w, func(load, strength, bestLoad, bestStrength int) bool {
		return strength > bestStrength || (strength == bestStrength && load < bestLoad)
	})
}

// StrengthAwareRandom is random injection with strength-proportional
// eagerness: a weak machine sometimes skips its turn, so strong machines
// collect proportionally more of the floating work. In homogeneous
// networks it degenerates to plain random injection.
type StrengthAwareRandom struct {
	// maxStrength is discovered lazily from observed hosts; strengths
	// are static for a run.
	maxStrength int
}

// NewStrengthAwareRandom returns the strength-weighted random strategy.
func NewStrengthAwareRandom() Strategy { return &StrengthAwareRandom{} }

// Name implements Strategy.
func (*StrengthAwareRandom) Name() string { return "strength-random" }

// Decide implements Strategy.
func (s *StrengthAwareRandom) Decide(w World) {
	p := w.Params()
	if s.maxStrength == 0 {
		w.EachHost(func(h View) {
			if h.Strength() > s.maxStrength {
				s.maxStrength = h.Strength()
			}
		})
		if s.maxStrength == 0 {
			return // no live hosts at all
		}
	}
	w.EachHost(func(h View) {
		if h.Workload() == 0 && h.SybilCount() > 0 {
			h.DropSybils()
		}
		if h.Workload() > p.SybilThreshold || !h.CanCreateSybil() {
			return
		}
		// Create with probability strength/maxStrength: the strongest
		// hosts act every pass, a strength-1 host only 1/max of the time.
		if w.RNG().Float64()*float64(s.maxStrength) < float64(h.Strength()) {
			h.CreateSybil(h.RandomID())
		}
	})
}

// TargetedInjection drops the paper's no-ID-choice assumption (§V, §VII):
// an idle host queries its successors' workloads like SmartNeighbor, but
// places its Sybil at the exact identifier that splits the most-loaded
// successor's *remaining* keys in half — the best possible single
// placement given local information.
type TargetedInjection struct{}

// NewTargetedInjection returns the chosen-ID injection strategy.
func NewTargetedInjection() Strategy { return TargetedInjection{} }

// Name implements Strategy.
func (TargetedInjection) Name() string { return "targeted" }

// Decide implements Strategy.
func (TargetedInjection) Decide(w World) {
	p := w.Params()
	w.EachHost(func(h View) {
		if h.Workload() == 0 && h.SybilCount() > 0 {
			h.DropSybils()
		}
		if h.Workload() > p.SybilThreshold || !h.CanCreateSybil() {
			return
		}
		best, load, found := mostLoaded(w, h, p.NumSuccessors)
		if !found || load < 2 {
			return
		}
		// One more message: ask the victim for its exact split point.
		w.ChargeMessages("split-query", 1)
		if id, ok := h.SplitPoint(best); ok {
			h.CreateSybil(id)
		}
	})
}
