package netchord

import (
	"net"
	"sync"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
)

// NetFaults maps a deterministic internal/faults plan onto real
// connections. The plan's probabilities and schedules are unchanged —
// drops, duplicates, delays, and partition windows all come from the
// same seeded injector the simulator uses — but here a tick is a slice
// of wall time (Config.TickEvery), so partition windows open and close
// in real time and delays become actual sleeps.
//
// Concurrency note: the underlying injector is single-threaded, so
// NetFaults serializes decisions with a mutex. Decisions are therefore
// still drawn from the plan's seeded streams, but the *assignment* of
// decisions to messages depends on goroutine scheduling. That is the
// honest semantics of a real network: the fault rates and windows are
// reproducible, the per-message outcomes are not.
type NetFaults struct {
	mu        sync.Mutex
	inj       *faults.Injector
	start     time.Time
	tickEvery time.Duration
	// stepped is set for a Lockstep run: the tick advances only by
	// crashTick, never with wall time.
	stepped bool

	// stats are cumulative fault-layer counters.
	stats NetFaultStats
}

// NetFaultStats counts fault-layer activity on real connections.
type NetFaultStats struct {
	// Drops counts frames black-holed in transit.
	Drops int64
	// Duplicates counts frames delivered twice.
	Duplicates int64
	// Delays counts frames delayed before delivery.
	Delays int64
	// PartitionDrops counts frames black-holed by an active partition.
	PartitionDrops int64
	// PartitionRefusals counts sends refused client-side (the caller saw
	// ErrPartitioned instead of a timeout).
	PartitionRefusals int64
}

// NewNetFaults validates plan and returns a fault layer whose tick
// clock starts now. A zero plan is legal and inert.
func NewNetFaults(plan faults.Plan, tickEvery time.Duration) (*NetFaults, error) {
	inj, err := faults.New(plan)
	if err != nil {
		return nil, err
	}
	if tickEvery <= 0 {
		tickEvery = Config{}.WithDefaults().TickEvery
	}
	return &NetFaults{inj: inj, start: time.Now(), tickEvery: tickEvery}, nil
}

// Plan returns the installed plan with defaults applied.
func (f *NetFaults) Plan() faults.Plan {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inj.Plan()
}

// Stats snapshots the cumulative fault counters.
func (f *NetFaults) Stats() NetFaultStats {
	if f == nil {
		return NetFaultStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// advance moves the injector's schedule to the current wall tick (a
// stepped clock stays put); callers hold f.mu.
func (f *NetFaults) advance() {
	if !f.stepped {
		f.inj.AdvanceTo(int(time.Since(f.start) / f.tickEvery))
	}
}

// SetPlan replaces the plan from now on, keeping the fault clock and
// the counters; a manual partition is lifted with the old plan. An
// invalid plan is refused and the old one stays.
func (f *NetFaults) SetPlan(plan faults.Plan) error {
	inj, err := faults.New(plan)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	inj.AdvanceTo(f.inj.Tick())
	f.inj = inj
	return nil
}

// crashTick steps a stepped clock one tick and draws that tick's
// crash-stop victims among n live nodes, by the rule the simulator
// draws its hosts with (faults.Injector.CrashVictims). It returns the
// victims' indices.
func (f *NetFaults) crashTick(n int) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inj.AdvanceTo(f.inj.Tick() + 1)
	victims, _ := f.inj.CrashVictims(n, nil, nil)
	return victims
}

// DropNow decides whether one frame is lost (nil-safe; false when nil).
func (f *NetFaults) DropNow() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advance()
	if f.inj.DropNow() {
		f.stats.Drops++
		return true
	}
	return false
}

// DupNow decides whether one delivered frame is duplicated.
func (f *NetFaults) DupNow() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advance()
	if f.inj.DupNow() {
		f.stats.Duplicates++
		return true
	}
	return false
}

// DelayNow returns the wall-time delay imposed on one delivered frame
// (0 almost always; the plan's tick-denominated delay scaled by the
// tick length when it fires).
func (f *NetFaults) DelayNow() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advance()
	d := f.inj.DelayNow()
	if d > 0 {
		f.stats.Delays++
	}
	return time.Duration(d) * f.tickEvery
}

// SameSide reports whether a frame between the two IDs can cross the
// network right now (true with no active partition, and nil-safe).
func (f *NetFaults) SameSide(a, b ids.ID) bool {
	if f == nil {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advance()
	return f.inj.SameSide(a, b)
}

// refused counts one client-side partition refusal.
func (f *NetFaults) refused() {
	f.mu.Lock()
	f.stats.PartitionRefusals++
	f.mu.Unlock()
}

// ForcePartition activates a partition immediately at the given
// identifier-space fraction, overriding the plan until Heal.
func (f *NetFaults) ForcePartition(frac float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inj.ForcePartition(frac)
}

// Heal lifts any active partition — manual or scheduled — from now on.
func (f *NetFaults) Heal() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inj.Heal()
}

// PartitionActive reports whether a partition is in force right now.
func (f *NetFaults) PartitionActive() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advance()
	return f.inj.PartitionActive()
}

// Wrap returns conn with the fault layer applied to writes between the
// two endpoint IDs. remote may be ids.Zero when the peer's identity is
// unknown (server-side accepts); partition checks then pass and only
// drop/dup/delay apply, which keeps the two directions from
// double-counting the partition. A nil *NetFaults returns conn as is.
func (f *NetFaults) Wrap(conn net.Conn, local, remote ids.ID) net.Conn {
	if f == nil {
		return conn
	}
	return &faultConn{Conn: conn, nf: f, local: local, remote: remote}
}

// faultConn is the fault-injecting conn wrapper. It relies on the wire
// package's invariant that every frame is written with exactly one
// Write call, so per-Write decisions are per-message decisions:
//
//   - partition: frames across the cut are black-holed (the sender sees
//     success and then times out waiting for the reply — the symptom a
//     real partition produces);
//   - drop: the frame is black-holed the same way;
//   - delay: the write is performed after sleeping the plan's
//     tick-denominated delay scaled to wall time;
//   - duplicate: the frame is written twice (receivers discard the
//     duplicate by request id, as deployed RPC layers do).
//
// Reads pass through untouched: each direction of a conversation is
// wrapped by its sender, so applying faults on reads too would
// double-charge every frame.
type faultConn struct {
	net.Conn
	nf            *NetFaults
	local, remote ids.ID
}

// Write implements net.Conn with fault injection per frame.
func (c *faultConn) Write(b []byte) (int, error) {
	if c.remote != ids.Zero && !c.nf.SameSide(c.local, c.remote) {
		c.nf.mu.Lock()
		c.nf.stats.PartitionDrops++
		c.nf.mu.Unlock()
		return len(b), nil // black hole: sender times out, like a real cut
	}
	if c.nf.DropNow() {
		return len(b), nil // black hole
	}
	if d := c.nf.DelayNow(); d > 0 {
		// A pipe end counts the delayed frame as in flight, or its loss
		// rule would expire a reader still owed this frame.
		if h, ok := c.Conn.(interface{ hold(int) }); ok {
			h.hold(1)
			defer h.hold(-1)
		}
		time.Sleep(d)
	}
	n, err := c.Conn.Write(b)
	if err == nil && c.nf.DupNow() {
		_, _ = c.Conn.Write(b) // duplicate delivery; receiver de-dupes by req id
	}
	return n, err
}
