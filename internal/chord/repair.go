package chord

// Repair instrumentation: the paper assumes "active and aggressive"
// replication makes failures free (§V). The helpers here measure, on the
// real protocol, exactly what that assumption costs and buys — how many
// maintenance rounds a failure wave takes to repair (time-to-repair), how
// many stored keys replication saved versus lost, and what fraction of
// lookups resolve while the overlay is degraded.

import (
	"chordbalance/internal/ids"
)

// ProbeKeys audits every tracked key: it looks each one up from the first
// live node (in ascending ID order, so the audit is deterministic) and
// checks the resolved owner actually holds the value. Probes are charged
// as ordinary lookup traffic and, under an installed fault injector, are
// themselves subject to loss — a degraded overlay audits itself through
// its own degraded transport.
func (nw *Network) ProbeKeys() (recovered, lost, probeFailures int) {
	alive := nw.AliveIDs()
	if len(alive) == 0 {
		return 0, len(nw.registry), len(nw.registry)
	}
	start := nw.nodes[alive[0]]
	for _, k := range sortedDataKeys(nw.registry) {
		owner, _, err := start.Lookup(k)
		if err != nil {
			probeFailures++
			continue
		}
		if _, ok := owner.data[k]; ok {
			recovered++
		} else {
			lost++
		}
	}
	return recovered, lost, probeFailures
}

// ChaosReport aggregates a multi-tick chaos run.
type ChaosReport struct {
	Ticks   int
	Crashed int
	// Waves counts ticks on which at least one node crashed; each wave
	// is stabilized to convergence and its rounds recorded.
	Waves             int
	TotalRepairRounds int
	MaxRepairRounds   int
	Unconverged       int
	// Key audit after the final tick.
	KeysTracked   int
	KeysRecovered int
	KeysLost      int
	ProbeFailures int
	// Transport is the overlay's cumulative fault-layer activity.
	Transport TransportStats
}

// MeanTimeToRepair returns the average rounds-to-repair per wave (0 when
// no wave fired).
func (r ChaosReport) MeanTimeToRepair() float64 {
	if r.Waves == 0 {
		return 0
	}
	return float64(r.TotalRepairRounds) / float64(r.Waves)
}

// LookupSuccessRate returns the fraction of final-audit probes that
// resolved (1 when nothing was tracked).
func (r ChaosReport) LookupSuccessRate() float64 {
	if r.KeysTracked == 0 {
		return 1
	}
	return 1 - float64(r.ProbeFailures)/float64(r.KeysTracked)
}

// RunChaos advances the overlay through ticks of the installed fault
// plan: each tick the injector's crash draws and correlated bursts pick
// victims (always leaving at least one node alive), every failure wave is
// stabilized until the ring heals (bounded by maxRoundsPerWave), and
// quiet ticks run one ordinary maintenance round. The final tick is
// followed by a full key audit. Without an installed injector the run is
// just ticks of maintenance plus the audit.
func (nw *Network) RunChaos(ticks, maxRoundsPerWave int) ChaosReport {
	rep := ChaosReport{Ticks: ticks}
	for t := 0; t < ticks; t++ {
		nw.AdvanceTick()
		victims := nw.drawVictims()
		if len(victims) == 0 {
			nw.StabilizeAll()
			continue
		}
		for _, id := range victims {
			nw.Kill(id)
		}
		rep.Crashed += len(victims)
		rep.Waves++
		rounds, ok := nw.StabilizeUntilConverged(maxRoundsPerWave)
		rep.TotalRepairRounds += rounds
		if rounds > rep.MaxRepairRounds {
			rep.MaxRepairRounds = rounds
		}
		if !ok {
			rep.Unconverged++
		}
	}
	rep.KeysRecovered, rep.KeysLost, rep.ProbeFailures = nw.ProbeKeys()
	rep.KeysTracked = len(nw.registry)
	rep.Transport = nw.tstats
	return rep
}

// drawVictims asks the fault injector which live nodes crash this tick:
// one Bernoulli draw per live node in ascending ID order, plus the
// correlated burst quota. At least one node always survives.
func (nw *Network) drawVictims() []ids.ID {
	inj := nw.faults
	if inj == nil {
		return nil
	}
	alive := nw.AliveIDs()
	chosen := make(map[ids.ID]bool)
	var out []ids.ID
	for _, id := range alive {
		if len(alive)-len(out) <= 1 {
			break
		}
		if inj.CrashNow() {
			out = append(out, id)
			chosen[id] = true
		}
	}
	for n := inj.BurstNow(); n > 0 && len(alive)-len(out) > 1; n-- {
		// Pick an index and walk forward to the next unchosen live node,
		// so burst victims are distinct and the draw stays deterministic.
		i := inj.Pick(len(alive))
		for j := 0; j < len(alive); j++ {
			id := alive[(i+j)%len(alive)]
			if !chosen[id] {
				out = append(out, id)
				chosen[id] = true
				break
			}
		}
	}
	return out
}
