// Package faults defines a deterministic, seed-driven fault plan shared by
// the protocol layer (internal/netchord) and the tick simulator
// (internal/sim).
//
// The paper evaluates its load-balancing strategies under *graceful* churn
// and leans on the "active and aggressive" replication assumption (§V) to
// claim no work is lost. Leslie's "Reliable Data Storage in Distributed
// Hash Tables" shows that replication maintenance cost and durability under
// failure are the real constraints, so this package supplies the missing
// adversity: crash-stop node failures, correlated failure bursts, message
// drop/duplication/delay, and two-sided ring partitions that later heal.
//
// Everything is denominated in abstract ticks and drawn from private
// xoshiro streams seeded by Plan.Seed, never from wall clocks or global
// randomness, so a run under any fault plan is exactly reproducible. A
// zero Plan is provably inert: no decision method consumes randomness
// until the corresponding rate is nonzero, which the determinism and
// golden regression suites depend on.
package faults

import (
	"encoding/binary"
	"fmt"
	"math"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// Plan is a complete, declarative fault schedule. The zero value injects
// nothing. Probabilities are per message (Drop/Dup/Delay) or per node per
// tick (Crash); everything else is tick-denominated.
type Plan struct {
	// Seed drives every fault decision. Independent from the simulation
	// seed so the same workload can be replayed under different faults
	// (and vice versa).
	Seed uint64

	// DropRate is the probability that one RPC message is lost in
	// transit. Senders retry up to MaxRetries times with deterministic
	// exponential backoff before reporting a timeout.
	DropRate float64
	// DupRate is the probability a delivered message is duplicated (the
	// duplicate is charged but has no further effect — the protocol's
	// operations are idempotent).
	DupRate float64
	// DelayRate is the probability a delivered message is delayed; the
	// delay is uniform in [1, MaxDelayTicks] ticks (netchord sleeps it
	// before writing the frame).
	DelayRate float64
	// MaxDelayTicks bounds one message delay. Default 4 (when DelayRate
	// is set).
	MaxDelayTicks int
	// MaxRetries bounds resends after a drop. Default 3.
	MaxRetries int
	// BackoffBase is the backoff before the first retry, in ticks;
	// retry k waits BackoffBase << (k-1). Default 1.
	BackoffBase int

	// CrashRate is each live node's per-tick probability of crash-stop
	// failure: the node disappears without handing off its keys.
	CrashRate float64
	// BurstEvery and BurstSize model correlated failures: every
	// BurstEvery ticks, BurstSize additional nodes crash at once (a rack
	// or AZ going dark). Both must be set for bursts to fire.
	BurstEvery int
	BurstSize  int

	// PartitionFrac splits the identifier space two ways: IDs whose
	// leading 64 bits fall below PartitionFrac of the space form the
	// minority side, and messages across the cut fail while the
	// partition is active.
	PartitionFrac float64
	// PartitionStart is the first tick the partition is active.
	PartitionStart int
	// PartitionHeal is the first tick the partition is healed again;
	// 0 means it never heals on its own (an Injector can still be healed
	// explicitly, e.g. by cmd/chordnet's heal command).
	PartitionHeal int
}

// Zero reports whether the plan injects nothing at all, i.e. running
// under it is byte-identical to running without a fault layer.
func (p Plan) Zero() bool {
	return p.DropRate == 0 && p.DupRate == 0 && p.DelayRate == 0 &&
		p.CrashRate == 0 && (p.BurstEvery == 0 || p.BurstSize == 0) &&
		p.PartitionFrac == 0
}

// Validate reports plan errors an injector would choke on.
func (p Plan) Validate() error {
	check01 := func(name string, v float64) error {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("faults: %s %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"DropRate", p.DropRate},
		{"DupRate", p.DupRate},
		{"DelayRate", p.DelayRate},
		{"CrashRate", p.CrashRate},
		{"PartitionFrac", p.PartitionFrac},
	} {
		if err := check01(c.name, c.v); err != nil {
			return err
		}
	}
	switch {
	case p.MaxDelayTicks < 0:
		return fmt.Errorf("faults: MaxDelayTicks must be >= 0, got %d", p.MaxDelayTicks)
	case p.MaxRetries < 0:
		return fmt.Errorf("faults: MaxRetries must be >= 0, got %d", p.MaxRetries)
	case p.BackoffBase < 0:
		return fmt.Errorf("faults: BackoffBase must be >= 0, got %d", p.BackoffBase)
	case p.BurstEvery < 0:
		return fmt.Errorf("faults: BurstEvery must be >= 0, got %d", p.BurstEvery)
	case p.BurstSize < 0:
		return fmt.Errorf("faults: BurstSize must be >= 0, got %d", p.BurstSize)
	case p.PartitionStart < 0:
		return fmt.Errorf("faults: PartitionStart must be >= 0, got %d", p.PartitionStart)
	case p.PartitionHeal < 0:
		return fmt.Errorf("faults: PartitionHeal must be >= 0, got %d", p.PartitionHeal)
	case p.PartitionHeal > 0 && p.PartitionHeal <= p.PartitionStart:
		return fmt.Errorf("faults: PartitionHeal %d must be after PartitionStart %d",
			p.PartitionHeal, p.PartitionStart)
	}
	return nil
}

func (p Plan) withDefaults() Plan {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 1
	}
	if p.MaxDelayTicks == 0 {
		p.MaxDelayTicks = 4
	}
	return p
}

// Backoff returns the deterministic exponential backoff, in ticks, spent
// before retry attempt k (k = 1 is the first retry): base << (k-1),
// saturating so pathological retry counts cannot overflow.
func Backoff(base, k int) int {
	if base <= 0 {
		base = 1
	}
	if k < 1 {
		k = 1
	}
	shift := k - 1
	if shift > 20 { // 1M ticks: far beyond any bounded retry budget
		shift = 20
	}
	return base << shift
}

// Injector turns a Plan into per-decision answers. It keeps two private
// RNG streams — one for message-level faults, one for crash scheduling —
// so that, e.g., probing lookups (which consume message draws) can never
// perturb which nodes crash. Not safe for concurrent use; give each
// ring or simulation its own instance.
type Injector struct {
	plan  Plan
	msg   *xrand.Rand
	crash *xrand.Rand
	tick  int

	// manual partition override (cmd/chordnet's partition/heal commands).
	manual     bool
	manualOn   bool
	manualFrac float64
}

// New validates the plan and returns an injector positioned at tick 0.
func New(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:  p.withDefaults(),
		msg:   xrand.New(p.Seed ^ 0xa2f267700a5a5a5a),
		crash: xrand.New(p.Seed ^ 0x5a5a5a0a0077f2a6),
	}, nil
}

// Plan returns the plan with defaults applied.
func (in *Injector) Plan() Plan { return in.plan }

// Tick returns the injector's current logical time.
func (in *Injector) Tick() int { return in.tick }

// AdvanceTo moves logical time forward (never backward).
func (in *Injector) AdvanceTo(tick int) {
	if tick > in.tick {
		in.tick = tick
	}
}

// DropNow decides whether the next message transmission is lost. It
// consumes no randomness when DropRate is 0 or 1.
func (in *Injector) DropNow() bool { return in.msg.Bool(in.plan.DropRate) }

// DupNow decides whether a delivered message is duplicated.
func (in *Injector) DupNow() bool { return in.msg.Bool(in.plan.DupRate) }

// DelayNow returns the delay, in ticks, imposed on a delivered message
// (0 almost always; uniform in [1, MaxDelayTicks] when the delay fires).
func (in *Injector) DelayNow() int {
	if !in.msg.Bool(in.plan.DelayRate) {
		return 0
	}
	return 1 + in.msg.Intn(in.plan.MaxDelayTicks)
}

// CrashNow decides whether one live-node candidate crash-stops this tick.
// Callers must iterate candidates in a deterministic order.
func (in *Injector) CrashNow() bool { return in.crash.Bool(in.plan.CrashRate) }

// BurstNow returns how many additional correlated crashes fire this tick
// (0 on non-burst ticks).
func (in *Injector) BurstNow() int {
	if in.plan.BurstEvery <= 0 || in.plan.BurstSize <= 0 {
		return 0
	}
	if in.tick > 0 && in.tick%in.plan.BurstEvery == 0 {
		return in.plan.BurstSize
	}
	return 0
}

// BurstTick reports whether the current tick is a scheduled
// correlated-crash burst tick. Like BurstNow it consumes no randomness
// (the burst schedule is pure tick arithmetic), so tracers can tag
// burst ticks (docs/OBSERVABILITY.md) without perturbing the fault
// stream.
func (in *Injector) BurstTick() bool { return in.BurstNow() > 0 }

// Pick returns a deterministic victim index in [0, n) for burst
// selection. It panics if n <= 0.
func (in *Injector) Pick(n int) int { return in.crash.Intn(n) }

// CrashVictims draws one tick's crash-stop victims among n live nodes,
// numbered 0..n-1 in an order the caller keeps deterministic: one
// CrashNow draw per node, then the BurstNow quota, each burst victim
// picked from the nodes the draws spared. At least one node always
// survives. It returns the victims in draw order in victims' storage
// and the survivors in spared's; both are caller-owned scratch, so a
// caller that hands back the returned slices allocates nothing once
// they have grown.
func (in *Injector) CrashVictims(n int, victims, spared []int) ([]int, []int) {
	victims, spared = victims[:0], spared[:0]
	for i := 0; i < n; i++ {
		if n-len(victims) > 1 && in.CrashNow() {
			victims = append(victims, i)
		} else {
			spared = append(spared, i)
		}
	}
	for k := in.BurstNow(); k > 0 && len(spared) > 1; k-- {
		j := in.Pick(len(spared))
		victims = append(victims, spared[j])
		spared = append(spared[:j], spared[j+1:]...)
	}
	return victims, spared
}

// ForcePartition activates a partition immediately with the given
// fraction, overriding the plan's schedule until Heal is called.
func (in *Injector) ForcePartition(frac float64) error {
	if frac <= 0 || frac >= 1 {
		return fmt.Errorf("faults: partition fraction %v outside (0,1)", frac)
	}
	in.manual = true
	in.manualOn = true
	in.manualFrac = frac
	return nil
}

// Heal deactivates any partition — manual or scheduled — from now on.
func (in *Injector) Heal() {
	in.manual = true
	in.manualOn = false
}

// PartitionActive reports whether a partition is in force at the current
// tick.
func (in *Injector) PartitionActive() bool {
	if in.manual {
		return in.manualOn
	}
	if in.plan.PartitionFrac == 0 {
		return false
	}
	if in.tick < in.plan.PartitionStart {
		return false
	}
	if in.plan.PartitionHeal > 0 && in.tick >= in.plan.PartitionHeal {
		return false
	}
	return true
}

func (in *Injector) partitionFrac() float64 {
	if in.manual && in.manualOn {
		return in.manualFrac
	}
	return in.plan.PartitionFrac
}

// MinoritySide reports which side of the cut id falls on: true when its
// leading 64 bits land in the first PartitionFrac of the identifier
// space. The mapping is a pure function of the ID, so both layers and
// both sides of the cut agree on it without coordination.
func (in *Injector) MinoritySide(id ids.ID) bool {
	u := binary.BigEndian.Uint64(id[:8])
	return float64(u)/float64(1<<32)/float64(1<<32) < in.partitionFrac()
}

// SameSide reports whether a message between the two IDs can cross the
// network at the current tick (always true with no active partition).
func (in *Injector) SameSide(a, b ids.ID) bool {
	if !in.PartitionActive() {
		return true
	}
	return in.MinoritySide(a) == in.MinoritySide(b)
}
