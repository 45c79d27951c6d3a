package sim

// Crash-stop churn for the simulation engine. Ordinary churn (sim.churn)
// models *graceful* departures: a leaving host hands its keys to its
// successors, so the job never loses work. The fault plan adds the
// failure mode the paper's "active, aggressive" replication assumption
// (§V) is really about — hosts that vanish mid-tick without a handoff.
// With replication the keys survive on successors at a repair-traffic
// cost; without it they are lost and must be re-submitted after a
// detection + reinsert delay, which shows up directly in the strategy's
// runtime factor.

import (
	"math"

	"chordbalance/internal/ids"
)

// FaultStats aggregates the fault layer's effect on one run. All fields
// stay zero under a zero fault plan.
type FaultStats struct {
	// Crashes counts crash-stop host departures; CrashedVNodes the virtual
	// nodes (primaries + Sybils + static copies) they took down.
	Crashes       int
	CrashedVNodes int
	// KeysRecovered counts keys on crashed hosts that replication saved;
	// KeysLost counts keys that vanished with their host and had to be
	// re-submitted. Resubmitted counts keys re-entering the ring (equal to
	// KeysLost once every pending batch has drained).
	KeysRecovered int
	KeysLost      int
	Resubmitted   int
	// RepairWaves counts ticks with at least one crash; RepairTicksTotal
	// and RepairTicksMax track the modeled detection+repair latency per
	// wave, and RepairMessages the replica-fetch traffic repair cost.
	RepairWaves      int
	RepairTicksTotal int
	RepairTicksMax   int
	RepairMessages   int
	// BlockedJoins and BlockedSybils count topology changes an active
	// partition refused; PartitionTicks counts ticks spent partitioned.
	BlockedJoins   int
	BlockedSybils  int
	PartitionTicks int
}

// MeanTimeToRepair returns the average modeled repair latency per crash
// wave, in ticks (0 when no wave fired).
func (f FaultStats) MeanTimeToRepair() float64 {
	if f.RepairWaves == 0 {
		return 0
	}
	return float64(f.RepairTicksTotal) / float64(f.RepairWaves)
}

// resubmission is a batch of crash-lost keys queued for re-entry.
type resubmission struct {
	due  int // tick at or after which the batch re-enters the ring
	keys []ids.ID
}

// pendingKeys counts keys lost to crashes and not yet re-submitted.
func (s *Simulation) pendingKeys() int {
	n := 0
	for _, p := range s.pending {
		n += len(p.keys)
	}
	return n
}

// repairTicks models how long a crash takes to detect and route around:
// one tick of failed pings plus an O(log n) re-lookup horizon. It is also
// the delay before a lost key's submitter notices and re-submits.
func (s *Simulation) repairTicks() int {
	n := s.ring.Len()
	if n < 2 {
		n = 2
	}
	return 1 + int(math.Ceil(math.Log2(float64(n))))
}

// crashStep runs one tick of crash-stop departures, drawn by the
// injector (faults.Injector.CrashVictims) over the live hosts in stable
// index order. The ring is never emptied — keys must live somewhere.
func (s *Simulation) crashStep() {
	alive := s.aliveHosts()
	s.victims, s.spared = s.finj.CrashVictims(len(alive), s.victims, s.spared)
	if len(s.victims) == 0 {
		return
	}
	waveTicks := s.repairTicks()
	s.fstats.RepairWaves++
	s.fstats.RepairTicksTotal += waveTicks
	if waveTicks > s.fstats.RepairTicksMax {
		s.fstats.RepairTicksMax = waveTicks
	}
	// crashHost only marks the active list dirty, so alive stays the
	// list the indices were drawn over.
	for _, i := range s.victims {
		s.crashHost(alive[i], waveTicks)
	}
}

// crashHost removes h abruptly. With replication each displaced key is
// recovered onto its successor at a repair-message cost; without, the
// keys on h's virtual nodes are lost and queued for re-submission after
// the detection delay.
func (s *Simulation) crashHost(h *hostState, delay int) {
	// Never let the ring empty out: someone must hold the keys.
	if s.ring.Len() <= len(h.vnodes) {
		return
	}
	s.fstats.Crashes++
	s.fstats.CrashedVNodes += len(h.vnodes)
	displaced := h.Workload() // needed for fault accounting either way
	s.recordEvent(EventCrash, h.Index(), h.vnodes[0].ID(), displaced)
	var lost []ids.ID
	// Sybils first, so the primary inherits any of their keys last —
	// mirrors detachAll's graceful-leave order.
	for i := len(h.vnodes) - 1; i >= 0; i-- {
		v := h.vnodes[i]
		w := v.rn.Workload()
		if s.replicas == 0 && w > 0 {
			// No replication: the keys die with the host. Drain them
			// before removal so Remove hands nothing to the successor.
			lost = append(lost, v.rn.Keys()...)
			v.rn.ConsumeN(w)
			h.wl -= w
		}
		s.detach(v) // the successor inherits whatever survived the drain
	}
	h.vnodes = h.vnodes[:0]
	s.reschedule(h)
	s.setAlive(h, false)
	if s.replicas > 0 {
		// Each displaced key is fetched from one of its replicas by the
		// new owner; detecting the crash costs one failed-ping round over
		// the successor list.
		s.fstats.KeysRecovered += displaced
		s.fstats.RepairMessages += displaced*s.replicas + s.params.NumSuccessors
	} else {
		s.fstats.KeysLost += len(lost)
		s.fstats.RepairMessages += s.params.NumSuccessors
		if len(lost) > 0 {
			s.pending = append(s.pending, resubmission{due: s.tick + delay, keys: lost})
		}
	}
}

// resubmitDue re-seeds every pending batch whose delay has elapsed.
func (s *Simulation) resubmitDue() {
	if len(s.pending) == 0 {
		return
	}
	kept := s.pending[:0]
	for _, p := range s.pending {
		if p.due > s.tick {
			kept = append(kept, p)
			continue
		}
		s.seed(p.keys)
		s.fstats.Resubmitted += len(p.keys)
		s.recordEvent(EventResubmit, -1, p.keys[0], len(p.keys))
		// Re-submission is a fresh store: one O(log n) lookup per key.
		for range p.keys {
			s.chargeLookup()
		}
	}
	s.pending = kept
}
