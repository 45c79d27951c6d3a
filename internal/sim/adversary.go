package sim

// Adversary/defense co-simulation: the engine-side wiring of
// internal/adversary. Two tick phases — adversaryStep (mint
// clustered hostile identities into the target arc) and defenseStep
// (density-scan the ring order array and evict flagged identities) —
// plus puzzle-cost admission charged wherever an identity enters the
// ring. Both phases run only when s.adv is non-nil, which requires a
// non-zero Attack or Defense config, so zero-config runs are provably
// untouched (the faults.Injector pattern).
//
// Determinism: the adversary draws from its own seeded stream, so the
// engine RNG sees exactly the honest draw sequence. Puzzle debt is paid
// out of the host's own work budget when it settles.

import (
	"chordbalance/internal/adversary"
	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// EclipseSample is one point of the eclipse-success trajectory: the
// fraction of the target arc whose full replica set was hostile at the
// sampled tick.
type EclipseSample struct {
	// Tick is the sample time.
	Tick int
	// Fraction is the eclipsed fraction of the target arc in [0, 1].
	Fraction float64
}

// AdversaryStats summarizes the attack/defense co-simulation. All-zero
// when both configs were zero.
type AdversaryStats struct {
	// HostileMints counts hostile identities placed on the ring.
	HostileMints int
	// HostileLive is the adversary's live identity count at the end.
	HostileLive int
	// HostileEvicted counts hostile identities the density defense
	// removed (true positives).
	HostileEvicted int
	// HonestEvicted counts honest Sybil identities the defense removed
	// (false positives: the paper's balancers mint dense IDs by design).
	HonestEvicted int
	// RekeyedPrimaries counts honest primary identities the defense
	// forced to rejoin at a fresh ID — eviction as induced churn.
	RekeyedPrimaries int
	// BlockedMints counts mint attempts abandoned because every drawn ID
	// was occupied or unreachable (partition minority side).
	BlockedMints int
	// PuzzleWorkCharged totals the admission work charged to honest
	// hosts (joins, Sybil mints, forced rekeys); the defense's drag on
	// the runtime factor.
	PuzzleWorkCharged int
	// CapturedKeys is the number of keys held by hostile identities at
	// the end of the run.
	CapturedKeys int
	// EclipseSamples is the eclipse-success trajectory at snapshot ticks
	// plus the final tick.
	EclipseSamples []EclipseSample
	// FinalEclipse is the eclipsed fraction of the target arc at the end
	// of the run.
	FinalEclipse float64
}

// FalseEvictionRate returns the fraction of defense evictions that hit
// honest identities (Sybils and rekeyed primaries); 0 when the defense
// never fired.
func (a AdversaryStats) FalseEvictionRate() float64 {
	total := a.HostileEvicted + a.HonestEvicted + a.RekeyedPrimaries
	if total == 0 {
		return 0
	}
	return float64(a.HonestEvicted+a.RekeyedPrimaries) / float64(total)
}

// advState is the engine's adversary/defense scratchpad; constructed by
// initAdversary only for non-zero configs.
type advState struct {
	// attacker is nil when the attack config is zero (defense-only run).
	attacker *adversary.Attacker
	// detector is nil unless density detection is on.
	detector *adversary.Detector
	// rng is the adversary's private stream: hostile draws must not
	// perturb the honest engine sequence.
	rng *xrand.Rand
	// hostile is the synthetic host backing every hostile virtual node.
	// It lives outside s.hosts and s.active — the waiting-pool scan,
	// settleAll, and snapshots never see it — it never consumes, so keys
	// it holds keep the calendar busy, and its zero Sybil cap keeps it
	// out of strategies' CanCreateSybil reach.
	hostile *hostState

	puzzleCost int
	scanEvery  int

	stats   AdversaryStats
	victims []*vnode // scratch: flagged positions resolved before eviction
}

// initAdversary builds the adversary/defense state when either config
// is non-zero; otherwise s.adv stays nil and every hostile code path is
// unreachable.
func (s *Simulation) initAdversary() error {
	cfg := s.cfg
	if cfg.Attack.Zero() && cfg.Defense.Zero() {
		return nil
	}
	adv := &advState{
		puzzleCost: adversary.PuzzleCost(cfg.Defense.PuzzleBits),
	}
	if !cfg.Attack.Zero() {
		a, err := adversary.NewAttacker(cfg.Attack)
		if err != nil {
			return err
		}
		adv.attacker = a
		adv.rng = xrand.New(cfg.Seed ^ 0x7c159e3779b94a05)
		adv.hostile = &hostState{index: len(s.hosts), strength: 1, alive: true, sim: s, settled: never}
	}
	if cfg.Defense.DetectionOn() {
		d, err := adversary.NewDetector(cfg.Defense)
		if err != nil {
			return err
		}
		adv.detector = d
		adv.scanEvery = d.Config().ScanEvery
	}
	s.adv = adv
	return nil
}

// adversaryStep runs the attacker's turn: accrue the tick's work, then
// (on the mint cadence) place as many clustered identities as budget
// and accumulated work allow. Serial: it draws from the adversary's
// private stream.
func (s *Simulation) adversaryStep() {
	a := s.adv.attacker
	if a == nil {
		return
	}
	a.Accrue()
	if s.tick%a.Config().MintEvery != 0 {
		return
	}
	cost := 1 + s.adv.puzzleCost
	if !a.CanMint(cost) {
		return
	}
	s.settleAll()
	for a.CanMint(cost) {
		id, ok := s.mintHostileID(a)
		if !ok {
			s.adv.stats.BlockedMints++
			break
		}
		v := s.attach(s.adv.hostile, id, true)
		a.Minted(cost)
		s.adv.stats.HostileMints++
		s.chargeLookup()
		s.recordEvent(EventHostileMint, s.adv.hostile.Index(), v.ID(), v.rn.Workload())
	}
}

// mintHostileID draws a clustered candidate, rejecting occupied IDs and
// (under an active partition) IDs the attacker cannot reach. Bounded
// tries: a saturated arc must not spin forever.
func (s *Simulation) mintHostileID(a *adversary.Attacker) (id ids.ID, ok bool) {
	for try := 0; try < 16; try++ {
		cand := a.MintID(s.adv.rng)
		if _, occupied := s.ring.Get(cand); occupied {
			continue
		}
		if s.finj != nil && s.finj.PartitionActive() && s.finj.MinoritySide(cand) {
			continue
		}
		return cand, true
	}
	return id, false
}

// defenseStep runs the density scan on its cadence and evicts every
// flagged identity. Flagged ring positions are resolved to virtual
// nodes before the first eviction: removals shift the order array.
func (s *Simulation) defenseStep() {
	d := s.adv.detector
	if d == nil || s.tick%s.adv.scanEvery != 0 {
		return
	}
	flagged := d.Flagged(s.ring.Len(), s.ringIDAt)
	if len(flagged) == 0 {
		return
	}
	s.settleAll()
	s.adv.victims = s.adv.victims[:0]
	for _, pos := range flagged {
		s.adv.victims = append(s.adv.victims, &s.ring.At(pos).Data)
	}
	for _, v := range s.adv.victims {
		if !v.rn.OnRing() || s.ring.Len() <= 1 {
			continue // keys must have somewhere to go
		}
		h := v.host
		switch {
		case h == s.adv.hostile:
			s.recordEvent(EventEvict, h.Index(), v.ID(), v.rn.Workload())
			s.removeVNode(v)
			s.adv.attacker.Evicted()
			s.adv.stats.HostileEvicted++
		case v.isSybil:
			// False positive: an honest balancer's Sybil looked like an
			// eclipse cluster.
			s.recordEvent(EventEvict, h.Index(), v.ID(), v.rn.Workload())
			s.removeVNode(v)
			h.droppedSybil()
			s.msgs.SybilsDropped++
			s.adv.stats.HonestEvicted++
		default:
			s.rekeyPrimary(v)
		}
	}
}

// rekeyPrimary handles a flagged honest primary (or static) identity:
// the host cannot leave the network, so the defense forces it to rejoin
// at a fresh uniform ID — eviction as induced churn. The replacement
// keeps the evicted node's slot so vnodes stays primary-first.
func (s *Simulation) rekeyPrimary(v *vnode) {
	h := v.host
	slot := -1
	for i, w := range h.vnodes {
		if w == v {
			slot = i
			break
		}
	}
	s.recordEvent(EventRekey, h.Index(), v.ID(), v.rn.Workload())
	s.removeVNode(v)
	nv := s.attach(h, s.randomID(), false)
	last := len(h.vnodes) - 1
	if slot >= 0 && slot < last {
		copy(h.vnodes[slot+1:last+1], h.vnodes[slot:last])
		h.vnodes[slot] = nv
	}
	s.chargePuzzle(h)
	s.chargeLookup()
	s.adv.stats.RekeyedPrimaries++
}

// removeVNode takes one virtual node off the ring and out of its host's
// list; detach settles and reschedules the two affected hosts.
func (s *Simulation) removeVNode(v *vnode) {
	s.detach(v)
	h := v.host
	for i, w := range h.vnodes {
		if w == v {
			h.vnodes = append(h.vnodes[:i], h.vnodes[i+1:]...)
			break
		}
	}
}

// chargePuzzle adds the admission puzzle cost to a host's debt, which
// delays its finish tick; a no-op when the defense (or its puzzle) is
// off, so undefended runs are untouched.
func (s *Simulation) chargePuzzle(h *hostState) {
	if s.adv == nil || s.adv.puzzleCost == 0 {
		return
	}
	s.settle(h)
	h.puzzleDebt += s.adv.puzzleCost
	s.reschedule(h)
	s.adv.stats.PuzzleWorkCharged += s.adv.puzzleCost
}

// ringIDAt adapts the ring to the detector's order-array view.
func (s *Simulation) ringIDAt(i int) ids.ID { return s.ring.At(i).Data.ID() }

// sampleEclipse appends one eclipse-success measurement. Attack-only:
// a defense-only run has no target arc to measure.
func (s *Simulation) sampleEclipse(tick int) {
	a := s.adv.attacker
	if a == nil {
		return
	}
	lo, hi := a.Target()
	replicas := s.replicas
	if replicas < 1 {
		replicas = 1
	}
	f := adversary.EclipsedFraction(s.ring.Len(), s.ringIDAt,
		func(i int) bool { return s.ring.At(i).Data.host == s.adv.hostile },
		lo, hi, replicas)
	s.adv.stats.EclipseSamples = append(s.adv.stats.EclipseSamples, EclipseSample{Tick: tick, Fraction: f})
	s.adv.stats.FinalEclipse = f
}

// finishAdversary finalizes the adversary accounting into the result.
func (s *Simulation) finishAdversary(res *Result) {
	if a := s.adv.attacker; a != nil {
		if n := len(s.adv.stats.EclipseSamples); n == 0 || s.adv.stats.EclipseSamples[n-1].Tick != s.tick {
			s.sampleEclipse(s.tick)
		}
		s.adv.stats.HostileLive = a.Live()
		captured := 0
		for _, v := range s.adv.hostile.vnodes {
			captured += v.rn.Workload()
		}
		s.adv.stats.CapturedKeys = captured
	}
	res.Adversary = s.adv.stats
}
