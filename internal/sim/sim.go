// Package sim is the discrete-time simulation engine of the paper's
// evaluation (§V): a Chord DHT holding a fixed job of tasks, advanced in
// abstract ticks. Each tick every live host consumes work, churn moves
// hosts between the network and a waiting pool, and every few ticks the
// configured strategy runs one autonomous load-balancing decision pass.
//
// The engine implements strategy.World and each host a strategy.View,
// so the policies in internal/strategy mutate the network only through
// the same local operations a real deployment would have.
package sim

import (
	"fmt"
	"io"
	"math"
	"slices"

	"chordbalance/internal/adversary"
	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/obs"
	"chordbalance/internal/ring"
	"chordbalance/internal/strategy"
	"chordbalance/internal/sybil"
	"chordbalance/internal/xrand"
)

// Config describes one experiment run (§V-B, "Experimental Variables").
type Config struct {
	// Nodes is the initial network size. The churn waiting pool starts at
	// the same size (§IV-A).
	Nodes int
	// Tasks is the job size in tasks.
	Tasks int
	// Strategy is the balancing policy; nil means the no-op baseline.
	Strategy strategy.Strategy
	// ChurnRate is each host's per-tick probability of leaving (and each
	// waiting host's probability of joining). Default 0.
	ChurnRate float64
	// ChurnModel shapes how churn arrives over time; the default
	// (ChurnConstant) is the paper's assumption of a constant rate.
	ChurnModel ChurnModel
	// BurstPeriod and BurstDuty configure ChurnBursty: churn happens only
	// during the first BurstDuty fraction of each BurstPeriod-tick cycle,
	// at a rate scaled up so the *average* rate still equals ChurnRate.
	// Defaults: period 50, duty 0.2.
	BurstPeriod int
	BurstDuty   float64
	// Heterogeneous draws host strengths from U{1..MaxSybils}.
	Heterogeneous bool
	// WorkByStrength makes a host consume Strength tasks per tick instead
	// of one.
	WorkByStrength bool
	// MaxSybils caps Sybils per host (default 5).
	MaxSybils int
	// SybilThreshold is the workload at or below which a host seeks work
	// (default 0).
	SybilThreshold int
	// InviteThreshold is the workload above which a node invites help.
	// 0 derives the default (twice the initial fair share); negative
	// values mean literally zero.
	InviteThreshold int
	// NumSuccessors is the successor/predecessor list length (default 5).
	NumSuccessors int
	// DecisionEvery is the strategy cadence in ticks (default 5).
	DecisionEvery int
	// AvoidRepeats enables the neighbor strategy's failed-arc blacklist.
	AvoidRepeats bool
	// ZipfObjects switches the workload from the paper's uniform task
	// keys to file-sharing-style popularity: tasks reference this many
	// distinct objects with Zipf(ZipfExponent) popularity, so tasks for
	// one popular object pile onto a single ring position. 0 (default)
	// keeps the paper's uniform keys.
	ZipfObjects int
	// ZipfExponent is the skew (default 1.0 when ZipfObjects > 0).
	ZipfExponent float64
	// StreamTasks adds tasks that arrive *during* the run — StreamRate
	// per tick until exhausted — instead of all being present at tick 0
	// (the paper assumes a static job, §V). The ideal runtime accounts
	// for both the extra work and the arrival horizon.
	StreamTasks int
	// StreamRate is the arrival rate in tasks/tick (required > 0 when
	// StreamTasks > 0).
	StreamRate int
	// StaticVNodes gives every host this many additional virtual nodes at
	// random IDs from the start — the classic static virtual-server
	// load-balancing scheme (Chord's own suggestion of O(log n) virtual
	// nodes per host). It is the literature's standard baseline against
	// which the paper's *dynamic* Sybil strategies can be judged; the
	// static copies never move, count against no Sybil cap, and exist
	// before the job begins. A host that churns out loses its copies and
	// rejoins with a single virtual node, as any fresh joiner would.
	StaticVNodes int
	// Faults is the deterministic fault plan (crash-stop departures,
	// correlated bursts, partitions) threaded through the run. The zero
	// plan is provably inert: no injector is constructed and no fault code
	// path consumes randomness, so fault-free runs are byte-identical to
	// pre-fault-layer builds.
	Faults faults.Plan
	// Attack configures a hostile eclipse adversary that mints clustered
	// Sybil identities inside a target arc (docs/ADVERSARY.md). Like
	// Faults, the zero config is provably inert: no adversary state is
	// constructed and no attack code path runs or consumes randomness,
	// so attack-free runs are byte-identical to pre-adversary builds.
	Attack adversary.AttackConfig
	// Defense configures the Sybil defenses: puzzle-cost identity
	// admission (charged against each admitted identity's consume
	// budget, honest and hostile alike) and per-arc ID-density anomaly
	// detection with eviction. The zero config is provably inert.
	Defense adversary.DefenseConfig
	// Replicas is the per-key replication degree assumed for crash-stop
	// departures: with replication, keys on a crashed host survive on
	// successors (charged as repair traffic); without, they are lost and
	// must be re-submitted after a detection+reinsert delay, which is
	// charged against the strategy's runtime. 0 derives the default
	// min(3, NumSuccessors); -1 disables replication.
	Replicas int
	// Seed makes the run fully deterministic.
	Seed uint64
	// MaxTicks aborts runaway runs; 0 derives 200×ideal+1000.
	MaxTicks int
	// ConsumeMode selects which end of its arc a node works through; see
	// ring.ConsumeMode. The default (ConsumeFront) reproduces the paper's
	// observed strategy behavior; ConsumeAlternate is the unbiased
	// alternative studied in the consumption-order ablation.
	ConsumeMode ring.ConsumeMode
	// SnapshotTicks lists ticks at which to capture workload snapshots
	// (tick 0 is the initial distribution).
	SnapshotTicks []int
	// RecordWorkPerTick keeps the per-tick consumption series.
	RecordWorkPerTick bool
	// RecordEvents keeps a log of every topology change (join, leave,
	// Sybil creation/withdrawal) with the tick it happened and the work
	// it moved; dhtsim can dump it as CSV for debugging and visualization.
	RecordEvents bool
	// CheckInvariants validates ring invariants every tick (slow; tests).
	CheckInvariants bool
	// Trace attaches a per-tick JSONL tracer (docs/OBSERVABILITY.md).
	// Tracing is read-only over engine state and consumes no randomness,
	// so a traced run's Result is byte-identical to the same seed
	// untraced. nil (the default) disables tracing entirely: no metric
	// code runs and the hot loop allocates nothing extra.
	Trace *obs.Tracer
}

// ChurnModel selects the temporal pattern of churn.
type ChurnModel int

const (
	// ChurnConstant applies ChurnRate every tick (the paper's model,
	// shared with most churn analyses it cites).
	ChurnConstant ChurnModel = iota
	// ChurnBursty concentrates the same average turnover into periodic
	// bursts — flash crowds and correlated failures — to test whether the
	// speedup from churn survives realistic arrival patterns.
	ChurnBursty
)

func (c Config) withDefaults() Config {
	if c.MaxSybils == 0 {
		c.MaxSybils = 5
	}
	if c.BurstPeriod == 0 {
		c.BurstPeriod = 50
	}
	if c.BurstDuty == 0 {
		c.BurstDuty = 0.2
	}
	if c.NumSuccessors == 0 {
		c.NumSuccessors = 5
	}
	if c.DecisionEvery == 0 {
		c.DecisionEvery = 5
	}
	if c.Strategy == nil {
		c.Strategy = strategy.NewNone()
	}
	return c
}

// Validate reports configuration errors a run would choke on.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("sim: Nodes must be >= 1, got %d", c.Nodes)
	case c.Tasks < 0:
		return fmt.Errorf("sim: Tasks must be >= 0, got %d", c.Tasks)
	case c.ChurnRate < 0 || c.ChurnRate > 1:
		return fmt.Errorf("sim: ChurnRate %v outside [0,1]", c.ChurnRate)
	case c.MaxSybils < 0:
		return fmt.Errorf("sim: MaxSybils must be >= 0, got %d", c.MaxSybils)
	case c.BurstPeriod < 0:
		return fmt.Errorf("sim: BurstPeriod must be >= 0, got %d", c.BurstPeriod)
	case c.BurstDuty < 0 || c.BurstDuty > 1:
		return fmt.Errorf("sim: BurstDuty %v outside [0,1]", c.BurstDuty)
	case c.ZipfObjects < 0:
		return fmt.Errorf("sim: ZipfObjects must be >= 0, got %d", c.ZipfObjects)
	case c.ZipfObjects > 0 && c.ZipfExponent < 0:
		return fmt.Errorf("sim: ZipfExponent must be >= 0, got %v", c.ZipfExponent)
	case c.StreamTasks < 0:
		return fmt.Errorf("sim: StreamTasks must be >= 0, got %d", c.StreamTasks)
	case c.StreamTasks > 0 && c.StreamRate < 1:
		return fmt.Errorf("sim: StreamTasks needs StreamRate >= 1, got %d", c.StreamRate)
	case c.StaticVNodes < 0:
		return fmt.Errorf("sim: StaticVNodes must be >= 0, got %d", c.StaticVNodes)
	case c.Replicas < -1:
		return fmt.Errorf("sim: Replicas must be >= -1, got %d", c.Replicas)
	case c.NumSuccessors < 0:
		return fmt.Errorf("sim: NumSuccessors must be >= 0, got %d", c.NumSuccessors)
	}
	// A replica lives on a successor; asking for more replicas than the
	// successor list is long cannot be satisfied by the protocol.
	ns := c.NumSuccessors
	if ns == 0 {
		ns = 5 // withDefaults
	}
	if c.Replicas > ns {
		return fmt.Errorf("sim: Replicas %d exceeds successor list length %d", c.Replicas, ns)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Attack.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Defense.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// MessageStats estimates the protocol traffic a real deployment would
// incur for the run, using the Chord cost model internal/netchord runs: a join (or Sybil
// creation) needs an O(log n) lookup plus successor-list setup; strategies
// are charged their queries and announcements.
type MessageStats struct {
	Joins          int
	Leaves         int
	SybilsCreated  int
	SybilsDropped  int
	LookupMessages int
	Maintenance    int
	Strategy       map[string]int
}

// Total sums every message category.
func (m MessageStats) Total() int {
	t := m.LookupMessages + m.Maintenance
	for _, v := range m.Strategy {
		t += v
	}
	return t
}

// Snapshot captures the workload distribution at one tick; the figures'
// histograms are built from these.
type Snapshot struct {
	Tick int
	// HostWorkloads is the residual work per live host (all its virtual
	// nodes combined) — what Figures 4-14 plot.
	HostWorkloads []int
	// VNodeWorkloads is the residual work per live virtual node.
	VNodeWorkloads []int
	AliveHosts     int
	VNodes         int
	// CrashedHosts is the cumulative crash-stop departure count at this
	// tick; PendingResubmit counts keys lost to crashes and still waiting
	// to be re-submitted. Both stay 0 under a zero fault plan.
	CrashedHosts    int
	PendingResubmit int
}

// EventKind classifies a topology change.
type EventKind int

// Event kinds, in the order a host typically experiences them.
const (
	EventJoin EventKind = iota
	EventLeave
	EventSybilCreate
	EventSybilDrop
	// EventCrash is a crash-stop departure drawn by the fault plan; Moved
	// counts the keys the crash displaced (recovered by replication or
	// lost outright).
	EventCrash
	// EventResubmit is a batch of crash-lost keys re-entering the ring
	// after the detection+reinsert delay; Moved counts the keys.
	EventResubmit
	// EventHostileMint is an adversary identity joining the ring inside
	// its target arc; Moved counts the keys it captured on arrival.
	EventHostileMint
	// EventEvict is a density-flagged identity removed by the defense;
	// Moved counts the keys handed back to its successor.
	EventEvict
	// EventRekey is an honest non-Sybil identity the defense flagged and
	// forced to rejoin at a fresh ID — eviction as induced churn.
	EventRekey
)

// String names the event kind for logs and CSV.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventSybilCreate:
		return "sybil-create"
	case EventSybilDrop:
		return "sybil-drop"
	case EventCrash:
		return "crash"
	case EventResubmit:
		return "resubmit"
	case EventHostileMint:
		return "hostile-mint"
	case EventEvict:
		return "evict"
	case EventRekey:
		return "rekey"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event records one topology change during a run.
type Event struct {
	Tick int
	Kind EventKind
	// Host is the physical machine's index.
	Host int
	// ID is the virtual node involved.
	ID ids.ID
	// Moved is the number of task keys that changed owner: keys acquired
	// on a join/creation, keys handed to successors on a leave/drop.
	Moved int
}

// WriteEventsCSV dumps events as tick,kind,host,id,moved rows.
func WriteEventsCSV(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, "tick,kind,host,id,moved\n"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%s,%d\n",
			e.Tick, e.Kind, e.Host, e.ID.Short(), e.Moved); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	Ticks         int
	IdealTicks    int
	RuntimeFactor float64
	Completed     bool
	Snapshots     []Snapshot
	WorkPerTick   []int
	Events        []Event
	Messages      MessageStats
	// Faults summarizes crash-stop churn and key-loss accounting; all-zero
	// when the run had a zero fault plan.
	Faults FaultStats
	// Adversary summarizes the attack/defense co-simulation; zero when
	// both the attack and defense configs were zero.
	Adversary AdversaryStats
	// FinalAliveHosts and FinalVNodes describe the network at the end.
	FinalAliveHosts int
	FinalVNodes     int
	// CompletedByStrength counts tasks completed per strength class —
	// the measurement behind the §VII hypothesis that weak nodes steal
	// work from strong ones in heterogeneous networks. Homogeneous runs
	// have a single class, 1.
	CompletedByStrength map[int]int
	// HostsByStrength counts the initially-live hosts per strength class.
	HostsByStrength map[int]int
}

// vnode is one virtual node. It is stored by value as its ring node's
// Data, so an identity's ring and engine halves are one allocation; the
// *vnode the engine passes around is &rn.Data.
type vnode struct {
	rn      *ring.Node[vnode]
	host    *hostState
	isSybil bool
}

func (v *vnode) ID() ids.ID { return v.rn.ID() }

// hostState is one physical machine: the engine-side implementation of
// strategy.View, answered from the oracle ring. The embedded sybil.Host
// is the host's one accounting record — index, strength, Sybil cap,
// Sybil count and liveness — and is written nowhere else.
//
// A host's consumption is applied lazily: its virtual nodes' windows,
// wl and puzzleDebt describe the end of tick settled, and settle brings
// them up to the engine's consume point before anything reads or moves
// the host's keys. finish is the host's entry in the engine's calendar.
type hostState struct {
	*sybil.Host
	vnodes []*vnode // primary first; empty while in the waiting pool

	// sim points back at the owning engine so the View methods can settle
	// (set once in New, never changed).
	sim *Simulation
	// wl is the host's workload — its virtual nodes' keys summed — as of
	// tick settled. Key movement updates it exactly: an Insert split or
	// Remove hand-off moves the keys between the two hosts' sums, and a
	// Seed re-sums every host.
	wl int
	// settled is the last tick whose consumption has been applied to the
	// host; never while it sits in the waiting pool, and always for the
	// adversary's hostile host, which consumes nothing: settling either
	// is a no-op.
	settled int
	// finish is the tick at the end of which the host runs out of keys
	// if nothing moves them: settled + ⌈(puzzleDebt+wl)/budget⌉ while
	// wl > 0 (never for the hostile host), at most the consume point
	// otherwise.
	finish int
	// puzzleDebt is unpaid identity-admission work (Defense.PuzzleBits):
	// each join, Sybil mint, or forced rekey charges the puzzle cost
	// here, and settle pays it down out of the host's per-tick work
	// budget before any task is consumed.
	puzzleDebt int
	// helpedTick is the last decision tick on which this host accepted
	// an invitation; a host helps at most once per pass.
	helpedTick int
}

func (h *hostState) Workload() int {
	h.sim.settle(h)
	return h.wl
}

// budget is the work h completes per tick under the run's work rule.
func (h *hostState) budget() int { return h.WorkPerTick(h.sim.cfg.WorkByStrength) }

// never is the settled tick of a host that consumes nothing (waiting
// pool, hostile host) and the finish tick of keys nobody will consume.
const never = math.MaxInt

// settle applies h's consumption for the ticks since it was last
// settled and returns the tasks it completed. Whatever the host's
// identity count, each tick it completes min(budget left after puzzle
// debt, keys left), so over k ticks a one-identity host completes
// min(wl, max(0, k·budget − debt)) in one ConsumeN — which leaves the
// window (alternation parity included) exactly as k per-tick batches
// would. A host with Sybils replays its k ticks heaviest identity
// first, the same work the per-tick engine did, only deferred.
func (s *Simulation) settle(h *hostState) int {
	k := s.consumed - h.settled
	if k <= 0 {
		return 0
	}
	h.settled = s.consumed
	if h.wl == 0 {
		if h.puzzleDebt > 0 {
			h.puzzleDebt = max(0, h.puzzleDebt-k*h.budget())
		}
		return 0
	}
	b := h.budget()
	var done int
	if len(h.vnodes) == 1 {
		avail := k*b - h.puzzleDebt
		if avail <= 0 {
			h.puzzleDebt = -avail
			return 0
		}
		h.puzzleDebt = 0
		done = h.vnodes[0].rn.ConsumeN(avail)
	} else {
		done = h.replay(k, b)
	}
	h.wl -= done
	if done > 0 {
		s.completedByStrength[h.Strength()] += done
	}
	return done
}

// replay runs k ticks of a multi-identity host's consumption, b tasks
// a tick, one tick at a time and returns the tasks completed. Puzzle
// debt comes out of each tick's budget first — a host still solving its
// puzzle contributes nothing to the job that tick — and the rest drains
// the host's most-loaded identity first. Ticks after the last key only
// pay debt.
func (h *hostState) replay(k, b int) (done int) {
	for ; k > 0 && done < h.wl; k-- {
		budget := b
		if h.puzzleDebt > 0 {
			if h.puzzleDebt >= budget {
				h.puzzleDebt -= budget
				continue
			}
			budget -= h.puzzleDebt
			h.puzzleDebt = 0
		}
		for budget > 0 {
			var best *vnode
			for _, v := range h.vnodes {
				if v.rn.Workload() > 0 && (best == nil || v.rn.Workload() > best.rn.Workload()) {
					best = v
				}
			}
			if best == nil {
				break
			}
			n := best.rn.ConsumeN(budget)
			budget -= n
			done += n
		}
	}
	h.puzzleDebt = max(0, h.puzzleDebt-k*b)
	return done
}

// settleAll settles every live host and returns the tasks they
// completed. A phase that may touch any host calls it once at its
// start; within the phase every host stays settled, so nothing settles
// again until the next consume point.
func (s *Simulation) settleAll() int {
	if s.settledAll == s.consumed {
		return 0
	}
	done := 0
	for _, h := range s.aliveHosts() {
		done += s.settle(h)
	}
	s.settledAll = s.consumed
	return done
}

// reschedule re-enters a settled host in the calendar after its keys or
// debt changed: it leaves the count of its old finish tick and, while
// it holds keys, joins the count of the new one.
func (s *Simulation) reschedule(h *hostState) {
	s.reschedules++
	if h.finish > s.consumed {
		if h.finish != never {
			s.cal[h.finish]--
		}
		s.busy--
	}
	h.finish = 0
	if h.wl == 0 {
		return
	}
	s.busy++
	if h.settled == never { // the hostile host: its keys stay until evicted
		h.finish = never
		return
	}
	b := h.budget()
	f := s.consumed + (h.puzzleDebt+h.wl+b-1)/b
	if f >= len(s.cal) {
		s.cal = append(s.cal, make([]int32, f+1-len(s.cal))...)
	}
	s.cal[f]++
	h.finish = f
}

// resum recomputes h's workload from its virtual nodes after a Seed,
// which can land keys on any host, and reschedules it if it changed.
func (s *Simulation) resum(h *hostState) {
	w := 0
	for _, v := range h.vnodes {
		w += v.rn.Workload()
	}
	if w != h.wl {
		h.wl = w
		s.reschedule(h)
	}
}

// seed routes n task keys onto the ring: keys when given (crash
// re-submissions), else n new ones from the task stream (arrivals).
// Merged windows must start from settled ones, and the keys can land on
// any host, so every host settles before and is re-summed after.
func (s *Simulation) seed(n int, keys []ids.ID) {
	s.settleAll()
	var err error
	if keys != nil {
		err = s.ring.Seed(keys)
	} else {
		err = s.tasks.seed(s.ring, n)
	}
	if err != nil {
		panic(err) // the ring always has at least one node
	}
	for _, h := range s.aliveHosts() {
		s.resum(h)
	}
	if s.adv != nil && s.adv.hostile != nil {
		s.resum(s.adv.hostile)
	}
}

// residual reports whether any work is left: keys some host has yet to
// finish, tasks still to arrive, or crash-lost keys awaiting
// re-submission.
func (s *Simulation) residual() bool {
	return s.busy > 0 || s.streamLeft > 0 || s.pendingKeys() > 0
}

// Simulation is a fully constructed, runnable experiment.
type Simulation struct {
	cfg    Config
	params strategy.Params
	// window is the reused buffer Successors and Predecessors fill.
	window []strategy.Peer
	rng    *xrand.Rand
	ring   *ring.Ring[vnode]
	hosts  []*hostState // live hosts and the churn waiting pool, by index
	msgs   MessageStats
	ideal  int
	tick   int

	// finj is the fault injector; nil when the plan is zero, which keeps
	// every fault code path provably inert.
	finj *faults.Injector
	// replicas is the effective replication degree (Config.Replicas with
	// defaults applied; 0 means replication disabled).
	replicas int
	// pending holds key batches lost to unreplicated crashes, waiting to
	// be re-submitted once their owner's failure has been detected and the
	// submitter retries.
	pending []resubmission
	fstats  FaultStats

	// tasks produces task keys for the initial seed and streamed
	// arrivals.
	tasks *taskStream
	// events accumulates the topology log when RecordEvents is set.
	events []Event
	// completedByStrength counts consumed tasks per host strength class.
	completedByStrength map[int]int
	// streamLeft counts tasks still to arrive.
	streamLeft int

	// consumed is the last tick whose consume point has passed: before
	// it in tick t it is t-1, after it t. Hosts settle up to it.
	consumed int
	// settledAll is the consumed value at which every live host was
	// last settled; while it equals consumed, no settle is needed.
	settledAll int
	// cal counts hosts by finish tick, and busy counts hosts — the
	// hostile one included — whose finish lies after consumed: work is
	// left exactly while busy > 0. Each consume point retires the hosts
	// finishing at it. reschedules counts calendar re-entries.
	cal         []int32
	busy        int
	reschedules int

	// active is the live-host list in stable index order, rebuilt lazily
	// whenever activeDirty is set (any setAlive transition). settleAll,
	// snapshot, EachHost, and the crash draws iterate it instead of
	// scanning the full host table (half of which is the waiting pool).
	// churn still scans every host: its RNG draw order — one Bool per
	// host, alive and waiting alike — is observable behavior.
	active      []*hostState
	activeDirty bool

	// adv holds the adversary/defense co-simulation state; nil when both
	// the attack and defense configs are zero, which keeps every hostile
	// code path provably inert (the same pattern as finj).
	adv *advState

	// obsm holds the registered trace-metric handles; nil when tracing
	// is disabled, which is the only flag the hot loop ever checks.
	obsm *simMetrics

	// scratch buffers reused across ticks
	leavers     []*hostState
	joiners     []*hostState
	victims     []int // indices into aliveHosts()
	spared      []int
	newlyAlive  []*hostState
	activeMerge []*hostState
}

// aliveHosts returns the live hosts in stable index order. The cached
// list is repaired incrementally: hosts that came alive since the last
// call are merged in and dead entries dropped, so a repair costs
// O(alive + joins log joins) instead of a full O(hosts) rescan of a
// table that is half waiting pool. Calls can be many ticks apart, so
// the joiners are sorted first, and a host may appear twice — in the
// list and among the joiners, or twice among the joiners — when it left
// and rejoined in between; the merge keeps one copy.
func (s *Simulation) aliveHosts() []*hostState {
	if !s.activeDirty {
		return s.active
	}
	merged := s.activeMerge[:0]
	keep := func(h *hostState) {
		if h.Alive() && (len(merged) == 0 || merged[len(merged)-1] != h) {
			merged = append(merged, h)
		}
	}
	na := s.newlyAlive
	slices.SortFunc(na, func(a, b *hostState) int { return a.Index() - b.Index() })
	j := 0
	for _, h := range s.active {
		for ; j < len(na) && na[j].Index() <= h.Index(); j++ {
			keep(na[j])
		}
		keep(h)
	}
	for ; j < len(na); j++ {
		keep(na[j])
	}
	s.activeMerge = s.active[:0]
	s.active = merged
	s.newlyAlive = s.newlyAlive[:0]
	s.activeDirty = false
	return s.active
}

// taskStream generates task keys: uniform SHA-1 draws (the paper's
// model) or Zipf-popular object references.
type taskStream struct {
	gen     *keys.Generator
	zipf    *keys.Zipf
	objects []ids.ID
	rng     *xrand.Rand
}

func newTaskStream(cfg Config) *taskStream {
	ts := &taskStream{gen: keys.NewGenerator(cfg.Seed ^ 0x9e3779b97f4a7c15)}
	if cfg.ZipfObjects > 0 {
		s := cfg.ZipfExponent
		if s == 0 {
			s = 1
		}
		ts.zipf = keys.NewZipf(cfg.ZipfObjects, s)
		ts.objects = keys.NewGenerator(cfg.Seed ^ 0xd1b54a32d192ed03).NodeIDs(cfg.ZipfObjects)
		ts.rng = xrand.New(cfg.Seed ^ 0xeb44accab455d165)
	}
	return ts
}

// seed routes n new task keys onto r. Uniform keys are hashed straight
// into the seed's sorted arena from the generator's reserved counter
// range (ring.SeedFrom); Zipf references are drawn serially, in RNG
// order, into a batch first.
func (ts *taskStream) seed(r *ring.Ring[vnode], n int) error {
	if ts.zipf == nil {
		return r.SeedFrom(n, ts.gen.Reserve(n))
	}
	batch := make([]ids.ID, n)
	for i := range batch {
		batch[i] = ts.objects[ts.zipf.Rank(ts.rng)-1]
	}
	return r.Seed(batch)
}

// New builds a simulation: hosts with SHA-1 primary IDs, the waiting pool,
// and the seeded task keys. It returns an error on invalid configuration.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Simulation{
		cfg:  cfg,
		rng:  xrand.New(cfg.Seed),
		ring: ring.New[vnode](),
		msgs: MessageStats{Strategy: make(map[string]int)},

		completedByStrength: make(map[int]int),
	}
	s.ring.SetConsumeMode(cfg.ConsumeMode)
	if cfg.Trace != nil {
		s.obsm = newSimMetrics(cfg.Trace)
	}
	// The zero plan constructs no injector at all: the fault layer cannot
	// perturb a fault-free run even by accident.
	if !cfg.Faults.Zero() {
		inj, err := faults.New(cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.finj = inj
	}
	switch {
	case cfg.Replicas > 0:
		s.replicas = cfg.Replicas
	case cfg.Replicas == 0:
		s.replicas = 3
		if s.replicas > cfg.NumSuccessors {
			s.replicas = cfg.NumSuccessors
		}
	default: // -1: replication disabled
		s.replicas = 0
	}
	// The first Nodes hosts start in the network, the next Nodes in the
	// churn waiting pool (§IV-A). NewPool draws heterogeneous strengths
	// in index order from the engine stream, before anything else uses it.
	pool := sybil.NewPool(sybil.PoolConfig{
		Hosts:         cfg.Nodes,
		WaitingHosts:  cfg.Nodes,
		Heterogeneous: cfg.Heterogeneous,
		MaxSybils:     cfg.MaxSybils,
	}, s.rng)
	s.hosts = make([]*hostState, pool.Len())
	slab := make([]hostState, len(s.hosts)) // one allocation for the population
	for i := range s.hosts {
		hh := pool.Host(i)
		slab[i] = hostState{Host: hh, sim: s}
		if !hh.Alive() {
			slab[i].settled = never
		}
		s.hosts[i] = &slab[i]
	}
	// From here on the active list is repaired incrementally (see
	// aliveHosts and setAlive).
	s.active = append(make([]*hostState, 0, cfg.Nodes), s.hosts[:cfg.Nodes]...)
	if err := s.initAdversary(); err != nil {
		return nil, err // unreachable: cfg.Validate already vetted both configs
	}
	// Place live hosts' primary virtual nodes at SHA-1 identifiers,
	// followed by any static virtual servers, as one bulk ring.Build:
	// O(V log V) instead of the O(V^2) repeated incremental Inserts
	// cost. Byte-identical to the old loop because the generator
	// sequence is unchanged and the duplicate check sees exactly the
	// same already-accepted ID set the incremental ring did.
	gen := keys.NewGenerator(cfg.Seed)
	taken := make(map[ids.ID]bool, cfg.Nodes*(1+cfg.StaticVNodes))
	freshID := func() ids.ID {
		for {
			id := gen.Next()
			if !taken[id] {
				taken[id] = true
				return id
			}
		}
	}
	nvn := cfg.Nodes * (1 + cfg.StaticVNodes)
	nodeIDs := make([]ids.ID, 0, nvn)
	data := make([]vnode, 0, nvn)
	addVN := func(h *hostState) {
		nodeIDs = append(nodeIDs, freshID())
		data = append(data, vnode{host: h})
	}
	for _, h := range s.hosts[:cfg.Nodes] {
		addVN(h)
	}
	for i := 0; i < cfg.StaticVNodes; i++ {
		for _, h := range s.hosts[:cfg.Nodes] {
			// Static copies are not Sybils: they are permanent ring
			// members and do not count against the Sybil cap.
			addVN(h)
		}
	}
	rns, err := s.ring.Build(nodeIDs, data)
	if err != nil {
		return nil, err // unreachable: freshID never repeats an ID
	}
	for _, rn := range rns { // input order: each host's primary first
		v := &rn.Data
		v.rn = rn
		v.host.vnodes = append(v.host.vnodes, v)
	}
	// Seed the job's initial task keys; streamed tasks arrive later.
	s.tasks = newTaskStream(cfg)
	s.streamLeft = cfg.StreamTasks
	if err := s.tasks.seed(s.ring, cfg.Tasks); err != nil {
		return nil, err
	}
	// Ideal runtime: every initial host working at full speed with a
	// perfectly even split (§V-C). With streaming, the job can also
	// never end before the last arrival. The same pass sums each host's
	// workload, so the calendar is sized once to the latest finish tick
	// before every host is entered in it.
	totalStrength, last := 0, 0
	for _, h := range s.active {
		b := h.budget()
		totalStrength += b
		for _, v := range h.vnodes {
			h.wl += v.rn.Workload()
		}
		last = max(last, (h.wl+b-1)/b)
	}
	s.cal = make([]int32, last+1)
	for _, h := range s.active {
		if h.wl > 0 {
			s.reschedule(h)
		}
	}
	totalTasks := cfg.Tasks + cfg.StreamTasks
	s.ideal = (totalTasks + totalStrength - 1) / totalStrength
	if cfg.StreamTasks > 0 {
		horizon := (cfg.StreamTasks + cfg.StreamRate - 1) / cfg.StreamRate
		if horizon > s.ideal {
			s.ideal = horizon
		}
	}
	if s.ideal == 0 {
		s.ideal = 1
	}
	s.params = strategy.Params{
		SybilThreshold:  cfg.SybilThreshold,
		InviteThreshold: cfg.InviteThreshold,
		NumSuccessors:   cfg.NumSuccessors,
		DecisionEvery:   cfg.DecisionEvery,
		AvoidRepeats:    cfg.AvoidRepeats,
	}.WithDefaults()
	switch {
	case cfg.InviteThreshold > 0:
		s.params.InviteThreshold = cfg.InviteThreshold
	case cfg.InviteThreshold < 0:
		s.params.InviteThreshold = 0
	default:
		// Twice the initial fair share: a node is "overburdened" once it
		// holds more than double what an even split would give it.
		s.params.InviteThreshold = 2 * ((cfg.Tasks + cfg.Nodes - 1) / cfg.Nodes)
	}
	return s, nil
}

// attach puts host h onto the ring at id with a fresh virtual node.
// Outside a settled phase (a churn join) h and the successor about to
// split settle first. When the insert splits keys off the successor,
// exactly two hosts are rescheduled: h and the successor's host. When
// the new node lands on an empty stretch of its successor's arc — most
// Sybils late in a run — no host's sum changed, and in a settled phase
// the successor is not even looked up.
func (s *Simulation) attach(h *hostState, id ids.ID, isSybil bool) *vnode {
	if s.settledAll != s.consumed {
		s.settle(h)
		if o := s.ring.Owner(id); o != nil {
			s.settle(o.Data.host)
		}
	}
	rn, err := s.ring.Insert(id, vnode{host: h, isSybil: isSybil})
	if err != nil {
		panic(fmt.Sprintf("sim: attach at occupied id %s", id.Short()))
	}
	v := &rn.Data
	v.rn = rn
	h.vnodes = append(h.vnodes, v)
	if w := rn.Workload(); w > 0 {
		succ := s.ring.Succ(rn, 1).Data.host
		succ.wl -= w
		h.wl += w
		s.reschedule(succ)
		s.reschedule(h)
	}
	return v
}

// detach takes v off the ring after settling its host. Only when v
// hands keys to its successor is the successor's host looked up,
// settled before it inherits, and rescheduled along with v's host; an
// empty node leaves without its successor being loaded. (Removing the
// last node while it holds keys panics, as Remove's ErrLastNode always
// has.)
func (s *Simulation) detach(v *vnode) {
	h := v.host
	s.settle(h)
	w := v.rn.Workload()
	var succ *hostState
	if w > 0 {
		succ = s.ring.Succ(v.rn, 1).Data.host
		s.settle(succ)
	}
	if err := s.ring.Remove(v.rn); err != nil {
		panic(err)
	}
	if w > 0 {
		h.wl -= w
		succ.wl += w
		s.reschedule(succ)
		s.reschedule(h)
	}
}

// IdealTicks returns the ideal runtime of the configured job.
func (s *Simulation) IdealTicks() int { return s.ideal }

// Run advances the simulation until the job completes or MaxTicks is hit,
// returning the collected metrics. Each tick's consume point only
// retires the hosts the calendar says finish at it; hosts settle when
// something reads or moves their keys (every tick under
// RecordWorkPerTick or Trace, which observe per-tick values), and all
// of them once more when the run ends.
func (s *Simulation) Run() *Result {
	cfg := s.cfg
	maxTicks := cfg.MaxTicks
	if maxTicks == 0 {
		maxTicks = 200*s.ideal + 1000
	}
	snapshotAt := make(map[int]bool, len(cfg.SnapshotTicks))
	for _, t := range cfg.SnapshotTicks {
		snapshotAt[t] = true
	}
	res := &Result{IdealTicks: s.ideal}
	if snapshotAt[0] {
		res.Snapshots = append(res.Snapshots, s.snapshot(0))
		if s.adv != nil {
			s.sampleEclipse(0)
		}
	}
	if s.obsm != nil {
		s.obsm.emitStart(s) // meta + schema + the tick-0 record
	}
	for s.residual() && s.tick < maxTicks {
		s.tick++
		if s.finj != nil {
			s.finj.AdvanceTo(s.tick)
			if s.finj.PartitionActive() {
				s.fstats.PartitionTicks++
			}
			s.resubmitDue()
		}
		if s.streamLeft > 0 {
			n := s.cfg.StreamRate
			if n > s.streamLeft {
				n = s.streamLeft
			}
			s.seed(n, nil)
			s.streamLeft -= n
		}
		done := s.consume()
		if cfg.RecordWorkPerTick {
			res.WorkPerTick = append(res.WorkPerTick, done)
		}
		if cfg.ChurnRate > 0 {
			s.churn()
		}
		if s.finj != nil {
			s.crashStep()
		}
		if s.adv != nil {
			s.adversaryStep()
		}
		if s.tick%s.params.DecisionEvery == 0 && s.busy > 0 {
			s.cfg.Strategy.Decide(s)
		}
		if s.adv != nil {
			s.defenseStep()
		}
		// Successor-list maintenance: every live virtual node pings its
		// successor list once per tick (§V-A "Maintenance"). Charged only
		// while the job is still running: when the last key was consumed
		// mid-tick the network has no round left to maintain, and charging
		// it would over-count every completed run by one round.
		if s.residual() {
			s.msgs.Maintenance += s.ring.Len() * s.params.NumSuccessors
		}
		if s.obsm != nil {
			s.obsm.observe(s, done)
		}
		if snapshotAt[s.tick] {
			res.Snapshots = append(res.Snapshots, s.snapshot(s.tick))
			if s.adv != nil {
				s.sampleEclipse(s.tick)
			}
		}
		if cfg.CheckInvariants {
			if err := s.ring.CheckInvariants(); err != nil {
				panic(err)
			}
			if err := s.checkCalendar(); err != nil {
				panic(err)
			}
		}
	}
	s.settleAll()
	res.Ticks = s.tick
	res.Events = s.events
	res.Completed = !s.residual()
	res.RuntimeFactor = float64(res.Ticks) / float64(s.ideal)
	res.Messages = s.msgs
	res.Faults = s.fstats
	res.FinalAliveHosts = len(s.aliveHosts())
	res.FinalVNodes = s.ring.Len()
	res.CompletedByStrength = s.completedByStrength
	res.HostsByStrength = make(map[int]int)
	for _, h := range s.hosts[:s.cfg.Nodes] {
		res.HostsByStrength[h.Strength()]++
	}
	if s.adv != nil {
		s.finishAdversary(res)
	}
	if s.obsm != nil {
		s.obsm.emitDone(res)
	}
	return res
}

// consume passes the tick's consume point: every live host has now
// worked through tick s.tick, and the hosts whose finish tick it is
// leave the busy count. RecordWorkPerTick and Trace observe each tick's
// completed work, so with either set every host settles here and
// consume returns the tasks completed; otherwise hosts settle on demand
// and it returns 0.
func (s *Simulation) consume() int {
	s.consumed = s.tick
	if s.consumed < len(s.cal) {
		s.busy -= int(s.cal[s.consumed])
	}
	if !s.cfg.RecordWorkPerTick && s.obsm == nil {
		return 0
	}
	return s.settleAll()
}

// checkCalendar recounts the calendar from the hosts (CheckInvariants
// mode): every host's wl is its virtual nodes' sum, its finish tick
// follows from its workload, debt and budget, busy counts the hosts
// still to finish, and each future tick's count matches.
func (s *Simulation) checkCalendar() error {
	counts := make([]int32, len(s.cal))
	busy := 0
	hosts := s.hosts
	if s.adv != nil && s.adv.hostile != nil {
		hosts = append(hosts[:len(hosts):len(hosts)], s.adv.hostile)
	}
	for _, h := range hosts {
		w := 0
		for _, v := range h.vnodes {
			w += v.rn.Workload()
		}
		if w != h.wl {
			return fmt.Errorf("sim: host %d records workload %d, its vnodes hold %d", h.Index(), h.wl, w)
		}
		want, b := h.finish, h.budget()
		switch {
		case h.wl > 0 && h.settled == never:
			want = never
		case h.wl > 0:
			want = h.settled + (h.puzzleDebt+h.wl+b-1)/b
		case h.finish > s.consumed:
			return fmt.Errorf("sim: host %d holds no keys but finishes at tick %d", h.Index(), h.finish)
		}
		if h.finish != want {
			return fmt.Errorf("sim: host %d finishes at tick %d, want %d (settled %d, debt %d, workload %d, budget %d)",
				h.Index(), h.finish, want, h.settled, h.puzzleDebt, h.wl, b)
		}
		if h.finish > s.consumed {
			busy++
			if h.finish != never {
				counts[h.finish]++
			}
		}
	}
	if busy != s.busy {
		return fmt.Errorf("sim: %d hosts still hold work, calendar counts %d", busy, s.busy)
	}
	for t := s.consumed + 1; t < len(s.cal); t++ {
		if counts[t] != s.cal[t] {
			return fmt.Errorf("sim: %d hosts finish at tick %d, calendar counts %d", counts[t], t, s.cal[t])
		}
	}
	return nil
}

// churn runs one tick of turnover: live hosts leave with probability
// ChurnRate, waiting hosts join with the same probability (§IV-A). Under
// ChurnBursty the turnover concentrates into periodic bursts with the
// same long-run average.
func (s *Simulation) churn() {
	rate := s.cfg.ChurnRate
	if s.cfg.ChurnModel == ChurnBursty {
		phase := (s.tick - 1) % s.cfg.BurstPeriod
		if float64(phase) >= s.cfg.BurstDuty*float64(s.cfg.BurstPeriod) {
			return // quiet part of the cycle
		}
		rate = rate / s.cfg.BurstDuty
		if rate > 1 {
			rate = 1
		}
	}
	s.leavers = s.leavers[:0]
	s.joiners = s.joiners[:0]
	// One draw per host, alive and waiting alike, at one rate, so only
	// the hosts it picks need their liveness read.
	for _, h := range s.hosts {
		if !s.rng.Bool(rate) {
			continue
		}
		if h.Alive() {
			s.leavers = append(s.leavers, h)
		} else {
			s.joiners = append(s.joiners, h)
		}
	}
	for _, h := range s.leavers {
		// Never let the ring empty out: someone must hold the keys.
		if s.ring.Len() <= len(h.vnodes) {
			continue
		}
		// Guard the argument evaluation, not just the append: Workload()
		// is worth skipping when no one is listening.
		if s.cfg.RecordEvents {
			s.recordEvent(EventLeave, h.Index(), h.vnodes[0].ID(), h.Workload())
		}
		s.detachAll(h)
		s.setAlive(h, false)
		s.msgs.Leaves++
	}
	for _, h := range s.joiners {
		id := s.randomID()
		// During an active partition a joiner can only bootstrap into the
		// majority side; an ID that lands in the minority arc is a join the
		// overlay cannot complete, so the host stays in the waiting pool.
		if s.finj != nil && s.finj.PartitionActive() && s.finj.MinoritySide(id) {
			s.fstats.BlockedJoins++
			continue
		}
		s.setAlive(h, true)
		v := s.attach(h, id, false)
		s.recordEvent(EventJoin, h.Index(), v.ID(), v.rn.Workload())
		s.msgs.Joins++
		s.chargeLookup()
		s.chargePuzzle(h)
	}
}

// setAlive moves h into or out of the network. Joiners are queued for
// aliveHosts' merge and start consuming from the next tick; a departing
// host settles one last time and then consumes nothing while it waits,
// and its Sybil identities all leave with it (sybil.SetAlive).
func (s *Simulation) setAlive(h *hostState, alive bool) {
	if !alive {
		s.settle(h)
		h.settled = never
	}
	h.SetAlive(alive)
	s.activeDirty = true
	if alive {
		h.settled = s.consumed
		s.newlyAlive = append(s.newlyAlive, h)
		// Repairs can be far apart; once the joiners outnumber the list,
		// merging them keeps the queue no longer than the network.
		if len(s.newlyAlive) > len(s.active) {
			s.aliveHosts()
		}
	}
}

// detachAll removes every virtual node of h from the ring (Sybils first so
// the primary inherits any of their keys that fall back to it last).
func (s *Simulation) detachAll(h *hostState) {
	for i := len(h.vnodes) - 1; i >= 0; i-- {
		s.detach(h.vnodes[i])
	}
	h.vnodes = h.vnodes[:0]
}

// recordEvent appends to the topology log when RecordEvents is on.
func (s *Simulation) recordEvent(kind EventKind, host int, id ids.ID, moved int) {
	if !s.cfg.RecordEvents {
		return
	}
	s.events = append(s.events, Event{Tick: s.tick, Kind: kind, Host: host, ID: id, Moved: moved})
}

// chargeLookup accounts the O(log n) routing messages a join or Sybil
// placement costs in a real Chord overlay.
func (s *Simulation) chargeLookup() {
	n := s.ring.Len()
	if n < 2 {
		return
	}
	s.msgs.LookupMessages += int(math.Ceil(math.Log2(float64(n))))
}

func (s *Simulation) snapshot(tick int) Snapshot {
	s.settleAll()
	alive := s.aliveHosts()
	// Snapshots escape into the Result, so the buffers are freshly
	// allocated — but exactly once, at their final size.
	snap := Snapshot{
		Tick:           tick,
		HostWorkloads:  make([]int, 0, len(alive)),
		VNodeWorkloads: make([]int, 0, s.ring.Len()),
	}
	for _, h := range alive {
		snap.AliveHosts++
		snap.HostWorkloads = append(snap.HostWorkloads, h.Workload())
		for _, v := range h.vnodes {
			snap.VNodeWorkloads = append(snap.VNodeWorkloads, v.rn.Workload())
		}
	}
	snap.VNodes = s.ring.Len()
	snap.CrashedHosts = s.fstats.Crashes
	snap.PendingResubmit = s.pendingKeys()
	return snap
}

// Run is the one-call entry point: build and run a configuration.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// --- strategy.World and strategy.View implementation ---

// Params implements strategy.World.
func (s *Simulation) Params() strategy.Params { return s.params }

// RNG implements strategy.World.
func (s *Simulation) RNG() *xrand.Rand { return s.rng }

// ChargeMessages implements strategy.World.
func (s *Simulation) ChargeMessages(kind string, n int) {
	s.msgs.Strategy[kind] += n
}

// EachHost implements strategy.World: live hosts in stable index order.
// The active list is maintained in exactly that order, so strategies'
// per-host RNG consumption sequence is unchanged. Every host settles
// first, so the pass — and the rest of the decision — sees every
// window current and never settles again.
func (s *Simulation) EachHost(fn func(h strategy.View)) {
	s.settleAll()
	for _, h := range s.aliveHosts() {
		if len(h.vnodes) > 0 {
			fn(h)
		}
	}
}

// peer describes n as h sees it.
func (h *hostState) peer(n *ring.Node[vnode]) strategy.Peer {
	return strategy.Peer{ID: n.ID(), PredID: n.PredID(), Mine: n.Data.host == h}
}

func (h *hostState) Primary() strategy.Peer             { return h.peer(h.vnodes[0].rn) }
func (h *hostState) Successors(k int) []strategy.Peer   { return h.sim.walk(h, k, +1) }
func (h *hostState) Predecessors(k int) []strategy.Peer { return h.sim.walk(h, k, -1) }
func (h *hostState) Load(p strategy.Peer) int           { return h.sim.settledAt(p).Workload() }
func (h *hostState) RandomID() ids.ID                   { return h.sim.randomID() }

// SplitPoint is the ID that halves p's remaining keys (used only by the
// §VII chosen-ID extension strategies).
func (h *hostState) SplitPoint(p strategy.Peer) (ids.ID, bool) {
	return h.sim.settledAt(p).SplitKey()
}

func (h *hostState) VNodes() []strategy.Peer {
	out := make([]strategy.Peer, len(h.vnodes))
	for i, v := range h.vnodes {
		out[i] = h.peer(v.rn)
	}
	return out
}

// walk lists up to k of h's primary's neighbours in direction dir into
// the engine's reused window buffer.
func (s *Simulation) walk(h *hostState, k, dir int) []strategy.Peer {
	if k > s.ring.Len()-1 {
		k = s.ring.Len() - 1
	}
	out := s.window[:0]
	s.ring.Walk(h.vnodes[0].rn, dir*k, func(n *ring.Node[vnode]) {
		out = append(out, h.peer(n))
	})
	s.window = out
	return out
}

// at returns the ring node p names. Peers stay valid for the whole
// pass: no strategy action removes another host's node.
func (s *Simulation) at(p strategy.Peer) *ring.Node[vnode] {
	n, _ := s.ring.Get(p.ID)
	return n
}

// settledAt is at for a read of p's keys: the owning host settles first.
func (s *Simulation) settledAt(p strategy.Peer) *ring.Node[vnode] {
	n := s.at(p)
	s.settle(n.Data.host)
	return n
}

func (h *hostState) Offer(p strategy.Peer) (load, strength int, ok bool) {
	c := h.sim.at(p).Data.host
	return c.Workload(), c.Strength(), c.willHelp()
}

// willHelp is the helper side of an invitation: at or below the Sybil
// threshold, under the cap, and not yet helping this pass.
func (h *hostState) willHelp() bool {
	return h.helpedTick != h.sim.tick && h.Workload() <= h.sim.params.SybilThreshold && h.CanCreateSybil()
}

// Invite has p's host, if it is willing, create the Sybil at id.
func (h *hostState) Invite(p strategy.Peer, id ids.ID) bool {
	c := h.sim.at(p).Data.host
	if !c.willHelp() {
		return false
	}
	if _, ok := c.CreateSybil(id); !ok {
		return false
	}
	c.helpedTick = h.sim.tick
	return true
}

func (h *hostState) CreateSybil(id ids.ID) (int, bool) {
	s := h.sim
	if !h.CanCreateSybil() {
		return 0, false
	}
	if _, occupied := s.ring.Get(id); occupied {
		return 0, false
	}
	// A host cannot place a Sybil across an active partition cut: the
	// join RPCs would never reach the far side's successors.
	if s.finj != nil && s.finj.PartitionActive() && len(h.vnodes) > 0 &&
		!s.finj.SameSide(h.vnodes[0].ID(), id) {
		s.fstats.BlockedSybils++
		return 0, false
	}
	v := s.attach(h, id, true)
	h.CreatedSybil()
	s.msgs.SybilsCreated++
	s.chargeLookup()
	s.chargePuzzle(h)
	s.recordEvent(EventSybilCreate, h.Index(), v.ID(), v.rn.Workload())
	return v.rn.Workload(), true
}

func (h *hostState) DropSybils() {
	s := h.sim
	s.settle(h)
	kept := h.vnodes[:0]
	for _, v := range h.vnodes {
		if !v.isSybil {
			kept = append(kept, v)
			continue
		}
		s.recordEvent(EventSybilDrop, h.Index(), v.ID(), v.rn.Workload())
		s.detach(v)
		h.DroppedSybil()
		s.msgs.SybilsDropped++
	}
	h.vnodes = kept
}

// randomID draws a uniformly random currently-unoccupied ring ID.
func (s *Simulation) randomID() ids.ID {
	for {
		id := ids.Random(s.rng)
		if _, occupied := s.ring.Get(id); !occupied {
			return id
		}
	}
}
