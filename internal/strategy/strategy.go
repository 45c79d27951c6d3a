// Package strategy implements the paper's four autonomous load-balancing
// strategies (plus the "smart" neighbor-injection variant of §VI-C). Each
// strategy makes purely local decisions: a host sees only its own workload
// and the successor/predecessor windows its virtual nodes already maintain,
// never any global state — the decentralization requirement of §I.
//
// Strategies act through a World that hands each host a View of what
// that host can know. Two runtimes implement it: the simulation engine
// in internal/sim over its oracle ring, and each networked host in
// internal/netchord over RPCs. A Strategy instance may carry
// per-run state (the neighbor strategy's retry blacklist), so build a
// fresh instance per simulation run and do not share instances across
// concurrently running simulations.
package strategy

import (
	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// Params are the strategy-relevant knobs of §V-B.
type Params struct {
	// SybilThreshold is the residual workload at or below which a host
	// tries to acquire work by creating a Sybil. Paper default: 0.
	SybilThreshold int
	// InviteThreshold is the workload strictly above which a node using
	// the Invitation strategy announces that it needs help. The engine
	// derives the default (twice the initial fair share) when it is 0;
	// see DESIGN.md §3.
	InviteThreshold int
	// NumSuccessors is how many successors (and predecessors) each node
	// tracks. Paper default: 5.
	NumSuccessors int
	// DecisionEvery is the cadence of decision passes in ticks. Paper: 5.
	DecisionEvery int
	// AvoidRepeats makes neighbor injection skip arcs where a previous
	// Sybil acquired no work (the "mark that range as invalid" refinement
	// of §IV-C).
	AvoidRepeats bool
}

// WithDefaults fills unset fields with the paper's defaults.
func (p Params) WithDefaults() Params {
	if p.NumSuccessors == 0 {
		p.NumSuccessors = 5
	}
	if p.DecisionEvery == 0 {
		p.DecisionEvery = 5
	}
	return p
}

// Peer is one virtual node as a host sees it: one of its own identities
// or an entry of its primary's successor or predecessor window.
// (PredID, ID] is the node's arc; Mine reports whether the viewing host
// projects it.
type Peer struct {
	ID, PredID ids.ID
	Mine       bool
}

// View is what one host knows and can do during a decision pass. It
// stays valid for the whole pass.
type View interface {
	// Index is the host's stable identity. Workload is its residual task
	// count across all its virtual nodes — information a real host has
	// locally (§V). SybilCount counts its live Sybils, CanCreateSybil
	// reports whether it is below its Sybil cap, and Strength is its
	// compute strength.
	Index() int
	Workload() int
	SybilCount() int
	CanCreateSybil() bool
	Strength() int

	// Primary is the host's primary virtual node, and VNodes all of its
	// virtual nodes, primary first.
	Primary() Peer
	VNodes() []Peer
	// Successors and Predecessors return up to k of the primary's
	// neighbours, nearest first (its successor list, and the chain
	// behind it). The slice may be reused by the view's next call of
	// either.
	Successors(k int) []Peer
	Predecessors(k int) []Peer

	// Load is p's own residual task count: a workload query when p is
	// another host's. Offer asks p's host whether it would accept an
	// invitation now — at or below the Sybil threshold, under its cap
	// and not yet helping this pass — and reports that host's workload
	// and strength.
	Load(p Peer) int
	Offer(p Peer) (load, strength int, ok bool)
	// SplitPoint returns the identifier that halves p's remaining keys,
	// and false when p holds fewer than two or the runtime cannot tell.
	// Only the §VII extensions use it: it presumes nodes may choose their
	// Sybil IDs, which base Chord does not allow.
	SplitPoint(p Peer) (ids.ID, bool)

	// CreateSybil inserts a Sybil for this host at id and reports the
	// task keys it took over; ok is false (and nothing is created) when
	// the ID is occupied or the host is at its cap. Invite asks p's host
	// to create one at id instead, and reports whether it agreed.
	// DropSybils removes all of this host's Sybils. RandomID draws a
	// uniformly random ring ID, unoccupied where the runtime can tell.
	CreateSybil(id ids.ID) (acquired int, ok bool)
	Invite(p Peer, id ids.ID) bool
	DropSybils()
	RandomID() ids.ID
}

// World is the surface a strategy acts through during one pass.
// ChargeMessages accounts the protocol traffic a deployment would incur
// for a decision (workload queries, invitations). EachHost calls fn with
// the View of every live host, in stable host order; a strategy that
// keeps views past their callback uses global knowledge and must say so
// (see Oracle).
type World interface {
	Params() Params
	RNG() *xrand.Rand
	ChargeMessages(kind string, n int)
	EachHost(fn func(h View))
}

// Strategy is one autonomous load-balancing policy. Decide runs one
// decision pass; the engine calls it every Params.DecisionEvery ticks.
type Strategy interface {
	Name() string
	Decide(w World)
}

// None is the baseline: no Sybils, no reaction. With a nonzero churn rate
// it is the paper's Induced Churn strategy (churn is an engine-level
// process, not a decision rule).
type None struct{}

// NewNone returns the do-nothing strategy.
func NewNone() Strategy { return None{} }

// Name implements Strategy.
func (None) Name() string { return "none" }

// Decide implements Strategy; it does nothing.
func (None) Decide(World) {}

// RandomInjection is §IV-B: under-utilized hosts project a Sybil at a
// uniformly random identifier; hosts whose Sybils found no work withdraw
// them and re-roll on a later pass.
type RandomInjection struct{}

// NewRandomInjection returns the random-injection strategy.
func NewRandomInjection() Strategy { return RandomInjection{} }

// Name implements Strategy.
func (RandomInjection) Name() string { return "random" }

// Decide implements Strategy.
func (RandomInjection) Decide(w World) {
	p := w.Params()
	w.EachHost(func(h View) {
		if h.Workload() == 0 && h.SybilCount() > 0 {
			// The Sybils acquired nothing (or it was all consumed):
			// withdraw them so a later pass can try fresh locations.
			h.DropSybils()
		}
		if h.Workload() <= p.SybilThreshold && h.CanCreateSybil() {
			// One Sybil per decision to avoid overwhelming the network
			// (§IV-B).
			h.CreateSybil(h.RandomID())
		}
	})
}

// NeighborInjection is §IV-C: an under-utilized host injects a Sybil into
// the largest arc among its successors — an estimate, requiring no
// workload queries — splitting that arc at its midpoint.
type NeighborInjection struct {
	// tried[host] records arc-owner IDs where this host's Sybil acquired
	// nothing, so AvoidRepeats can skip them. Cleared when the host
	// acquires work.
	tried map[int]map[ids.ID]struct{}
}

// NewNeighborInjection returns the estimate-based neighbor strategy.
func NewNeighborInjection() Strategy {
	return &NeighborInjection{tried: make(map[int]map[ids.ID]struct{})}
}

// Name implements Strategy.
func (*NeighborInjection) Name() string { return "neighbor" }

// Decide implements Strategy.
func (s *NeighborInjection) Decide(w World) {
	p := w.Params()
	w.EachHost(func(h View) {
		if h.Workload() > p.SybilThreshold || !h.CanCreateSybil() {
			if h.Workload() > p.SybilThreshold {
				delete(s.tried, h.Index()) // acquired work: forget failures
			}
			return
		}
		var best Peer
		var bestArc ids.ID
		found := false
		for _, v := range h.Successors(p.NumSuccessors) {
			if v.Mine {
				continue // never steal from ourselves
			}
			if p.AvoidRepeats {
				if _, bad := s.tried[h.Index()][v.ID]; bad {
					continue
				}
			}
			arc := v.PredID.Distance(v.ID)
			if !found || arc.Compare(bestArc) > 0 {
				best, bestArc, found = v, arc, true
			}
		}
		if !found {
			return
		}
		acquired, ok := h.CreateSybil(ids.Midpoint(best.PredID, best.ID))
		if ok && acquired == 0 && p.AvoidRepeats {
			m := s.tried[h.Index()]
			if m == nil {
				m = make(map[ids.ID]struct{})
				s.tried[h.Index()] = m
			}
			m[best.ID] = struct{}{}
		}
	})
}

// SmartNeighbor is the §VI-C refinement: instead of estimating by arc
// size, the host queries each successor's actual workload (costing
// NumSuccessors messages) and splits the most-loaded successor's arc.
type SmartNeighbor struct{}

// NewSmartNeighbor returns the query-based neighbor strategy.
func NewSmartNeighbor() Strategy { return SmartNeighbor{} }

// Name implements Strategy.
func (SmartNeighbor) Name() string { return "smart-neighbor" }

// Decide implements Strategy.
func (SmartNeighbor) Decide(w World) {
	p := w.Params()
	w.EachHost(func(h View) {
		if h.Workload() > p.SybilThreshold || !h.CanCreateSybil() {
			return
		}
		best, load, found := mostLoaded(w, h, p.NumSuccessors)
		if !found || load == 0 {
			return // nothing worth stealing in the neighborhood
		}
		h.CreateSybil(ids.Midpoint(best.PredID, best.ID))
	})
}

// mostLoaded queries the workload of each of h's k successors (charging
// one message each) and returns the most loaded one h does not own.
func mostLoaded(w World, h View, k int) (best Peer, load int, found bool) {
	succs := h.Successors(k)
	w.ChargeMessages("workload-query", len(succs))
	for _, v := range succs {
		if v.Mine {
			continue
		}
		if l := h.Load(v); !found || l > load {
			best, load, found = v, l, true
		}
	}
	return best, load, found
}

// Invitation is §IV-D: the reactive strategy. An overloaded node announces
// to its predecessors that it needs help; the least-loaded predecessor at
// or below the Sybil threshold (with spare Sybil capacity) injects a Sybil
// into the overloaded node's arc. Invitations are refused when no
// predecessor qualifies.
type Invitation struct{}

// NewInvitation returns the invitation strategy.
func NewInvitation() Strategy { return Invitation{} }

// Name implements Strategy.
func (Invitation) Name() string { return "invitation" }

// Decide implements Strategy.
func (Invitation) Decide(w World) {
	invite(w, func(load, strength, bestLoad, bestStrength int) bool {
		return load < bestLoad
	})
}

// invite runs one invitation pass: every primary above the invite
// threshold asks its predecessors, and invites the qualifying one that
// ranks first under better(candidate, best) to split its arc. A host
// helps at most once per pass: Offer refuses for one that already did.
func invite(w World, better func(load, strength, bestLoad, bestStrength int) bool) {
	p := w.Params()
	w.EachHost(func(h View) {
		// The primary's load is part of the host's: a host at or below
		// the threshold has no overloaded primary to ask about.
		if h.Workload() <= p.InviteThreshold {
			return
		}
		primary := h.Primary()
		if h.Load(primary) <= p.InviteThreshold {
			return
		}
		preds := h.Predecessors(p.NumSuccessors)
		w.ChargeMessages("invitation", len(preds))
		var helper Peer
		var helperLoad, helperStrength int
		found := false
		for _, v := range preds {
			if v.Mine {
				continue
			}
			load, strength, ok := h.Offer(v)
			if !ok {
				continue
			}
			if !found || better(load, strength, helperLoad, helperStrength) {
				helper, helperLoad, helperStrength, found = v, load, strength, true
			}
		}
		if found { // otherwise the invitation is refused
			h.Invite(helper, ids.Midpoint(primary.PredID, primary.ID))
		}
	})
}

// registry lists every harness-facing name with its constructor.
var registry = []struct {
	name string
	make func() Strategy
}{
	{"none", NewNone},
	{"churn", NewNone}, // an alias of none: churn is an engine parameter
	{"random", NewRandomInjection},
	{"neighbor", NewNeighborInjection},
	{"smart-neighbor", NewSmartNeighbor},
	{"smart", NewSmartNeighbor},
	{"invitation", NewInvitation},
	{"strength-invitation", NewStrengthInvitation},
	{"strength-random", NewStrengthAwareRandom},
	{"targeted", NewTargetedInjection},
	{"oracle", NewOracle},
}

// ByName returns a fresh strategy instance for a harness-facing name:
// one of Names — the base strategies, the §VII extensions
// strength-invitation, strength-random and targeted, and the
// non-decentralized upper bound oracle.
func ByName(name string) (Strategy, bool) {
	for _, r := range registry {
		if r.name == name {
			return r.make(), true
		}
	}
	return nil, false
}

// Names lists every name ByName accepts.
func Names() (out []string) {
	for _, r := range registry {
		out = append(out, r.name)
	}
	return out
}
