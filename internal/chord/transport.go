package chord

import (
	"errors"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
)

// Transport-level errors. Both behave like the timeouts a deployment
// would see: the caller cannot distinguish a dead peer from a lossy path
// or a partition except by how long the symptom lasts.
var (
	// ErrTimeout means every transmission attempt (original + retries)
	// of one RPC was dropped.
	ErrTimeout = errors.New("chord: rpc timed out after retries")
	// ErrPartitioned means the destination is on the other side of an
	// active network partition.
	ErrPartitioned = errors.New("chord: destination unreachable across partition")
)

// TransportStats counts fault-layer activity on one overlay. All counters
// are cumulative since the network was created; they stay zero until a
// fault injector is installed.
type TransportStats struct {
	// Sends counts RPC send attempts that passed through the fault
	// layer (first transmissions, not retries).
	Sends int
	// Drops counts individual transmissions lost (including retries).
	Drops int
	// Retries counts re-transmissions after a drop.
	Retries int
	// Duplicates counts spurious duplicate deliveries (charged as
	// messages; the protocol's operations are idempotent).
	Duplicates int
	// Timeouts counts RPCs abandoned after the retry budget.
	Timeouts int
	// BackoffTicks accumulates the deterministic exponential backoff
	// spent waiting between retries, in ticks.
	BackoffTicks int
	// DelayTicks accumulates in-flight delays imposed on delivered
	// messages, in ticks.
	DelayTicks int
	// PartitionRefusals counts sends blocked by an active partition.
	PartitionRefusals int
	// Lookups and LookupFailures measure end-to-end lookup availability:
	// every Lookup/LookupTraced call is an attempt (finger repair, Put,
	// Get and the key audit all route through Lookup), and
	// any error outcome (timeout, partition, no route, isolation) is a
	// failure. These are counted whether or not faults are installed.
	Lookups        int
	LookupFailures int
}

// LookupSuccessRate returns the fraction of lookups that resolved
// (1 when none were attempted).
func (s TransportStats) LookupSuccessRate() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return 1 - float64(s.LookupFailures)/float64(s.Lookups)
}

// SetFaultInjector installs a fault injector on the overlay; nil removes
// it. With no injector (or a zero plan) every code path is byte-identical
// to the fault-free protocol: same messages charged, same outcomes.
func (nw *Network) SetFaultInjector(inj *faults.Injector) { nw.faults = inj }

// FaultInjector returns the installed injector (nil when none).
func (nw *Network) FaultInjector() *faults.Injector { return nw.faults }

// TransportStats returns the accumulated fault-layer counters.
func (nw *Network) TransportStats() TransportStats { return nw.tstats }

// AdvanceTick advances the overlay's logical clock by one tick and keeps
// the fault injector's schedule (partition windows, crash bursts) in
// step. Deployments would use wall time; the overlay uses ticks so every
// fault sequence is replayable.
func (nw *Network) AdvanceTick() {
	nw.tick++
	if nw.faults != nil {
		nw.faults.AdvanceTo(nw.tick)
	}
}

// send models one RPC transmission of the given kind from -> to through
// the fault layer: the message is charged, then an installed injector may
// block it at a partition or drop it, in which case the sender retries up
// to MaxRetries times with exponential backoff (each retry charged as a
// fresh message, each backoff accounted in ticks). A nil error means the
// message was delivered.
func (nw *Network) send(kind string, from, to ids.ID) error {
	nw.charge(kind)
	f := nw.faults
	if f == nil {
		return nil
	}
	nw.tstats.Sends++
	if !f.SameSide(from, to) {
		nw.tstats.PartitionRefusals++
		return ErrPartitioned
	}
	if !f.DropNow() {
		nw.delivered(kind, f)
		return nil
	}
	nw.tstats.Drops++
	maxRetries := f.Plan().MaxRetries
	for k := 1; k <= maxRetries; k++ {
		nw.tstats.Retries++
		nw.tstats.BackoffTicks += faults.Backoff(f.Plan().BackoffBase, k)
		nw.charge(kind)
		if !f.DropNow() {
			nw.delivered(kind, f)
			return nil
		}
		nw.tstats.Drops++
	}
	nw.tstats.Timeouts++
	return ErrTimeout
}

// delivered applies post-delivery faults: duplication (one extra charged
// message) and in-flight delay (accounted, not reordered).
func (nw *Network) delivered(kind string, f *faults.Injector) {
	if f.DupNow() {
		nw.tstats.Duplicates++
		nw.charge(kind)
	}
	nw.tstats.DelayTicks += f.DelayNow()
}

// sortedDataKeys returns a map's keys in ascending ring order. Bulk key
// operations (transfers, replica repair, departures) iterate in this
// order so that per-message fault decisions — which consume seeded
// randomness — cannot depend on Go's randomized map iteration.
func sortedDataKeys(m map[ids.ID]string) []ids.ID {
	out := make([]ids.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortIDs(out)
	return out
}
