// Package netchord is the networked Chord runtime: goroutine-per-node
// servers that speak the internal/wire protocol over real net.Conn
// streams, with background stabilization, per-peer connection pooling,
// request timeouts with tick-denominated backoff, and the paper's four
// load-balancing strategies (induced churn, random injection, neighbor
// injection, invitation) driven by each node's own local loop instead of
// a global tick scheduler.
//
// Everything the simulator abstracts away is concrete here: lookups are
// sequences of round trips that can time out, joins are handshakes that
// can fail halfway, stabilization races with churn, and the
// internal/faults plan is mapped onto real sockets by a fault-injecting
// conn wrapper (drop, duplicate, delay, two-sided partition). The
// runtime therefore trades the simulator's byte-determinism for real
// concurrency: a fault plan's *decisions* are still drawn from its
// seeded streams, but which message meets which decision depends on
// scheduling, exactly as it would in a deployment. The simulator
// (internal/sim) remains the deterministic layer and is untouched by —
// and does not import — this package.
//
// Two transports hide behind one interface: loopback TCP (the default;
// multi-process capable) and an in-process pipe transport for tests
// that want thousands of "connections" without file descriptors, and
// for Lockstep, which replays a seeded fault plan exactly. cmd/chordd
// runs one or many nodes; cmd/dhtload drives a cluster at a target
// request rate over sockets. See docs/NETWORK.md for the message flow,
// node lifecycle, and fault mapping.
package netchord

import (
	"errors"
	"time"

	"chordbalance/internal/ids"
)

// Runtime errors surfaced by client operations.
var (
	// ErrTimeout means every attempt (original + retries) of one RPC
	// failed or timed out.
	ErrTimeout = errors.New("netchord: rpc timed out after retries")
	// ErrPartitioned means the destination is on the other side of an
	// active network partition.
	ErrPartitioned = errors.New("netchord: destination unreachable across partition")
	// ErrNoRoute means a lookup exceeded its hop budget.
	ErrNoRoute = errors.New("netchord: lookup exceeded hop budget")
	// ErrNotFound means the key's owner does not hold it.
	ErrNotFound = errors.New("netchord: key not found")
	// ErrClosed means the node or cluster has been shut down.
	ErrClosed = errors.New("netchord: closed")
	// ErrRemote wraps a TError reply from a peer.
	ErrRemote = errors.New("netchord: remote error")
	// ErrNotOwner marks a CodeNotOwner refusal: the peer is alive but the
	// key lies outside its arc. It is always wrapped alongside ErrRemote.
	ErrNotOwner = errors.New("netchord: not the key's owner")
)

// Fixed protocol bounds and cadences; ticks are Config.TickEvery long.
const (
	// maxHops bounds one lookup.
	maxHops = 3 * ids.Bits
	// backoffBaseTicks is the backoff before the first RPC retry; the
	// k-th retry waits faults.Backoff(backoffBaseTicks, k) ticks.
	backoffBaseTicks = 1
	// StabilizeEveryTicks is the cadence of the maintenance round
	// (successor verification + notify + one finger fixed).
	StabilizeEveryTicks = 4
	// antiEntropyEveryTicks is the replica anti-entropy cadence: every
	// so many ticks a node compares Merkle digests of its primary arc
	// with its replicas and reconciles the differences.
	antiEntropyEveryTicks = 8
	// ReportEveryTicks is a host's report cadence to the collector.
	ReportEveryTicks = 2
	// densityWindow is the density scan's window width in consecutive
	// view entries: half the default successor list, so a clean
	// majority of the view anchors the ring-size estimate.
	densityWindow = 4
	// densityEveryTicks is the density scan cadence.
	densityEveryTicks = 16
)

// Config tunes one node (and, via Host/Cluster, a whole runtime). The
// zero value is usable: WithDefaults fills every field.
type Config struct {
	// TickEvery is the real-time length of one logical tick. Backoff,
	// fault delays, and maintenance cadences are all denominated in
	// ticks and scaled by this duration, mirroring the simulator's
	// abstract clock. Default 5ms.
	TickEvery time.Duration
	// SuccessorListLen is r in the Chord paper. Default 8.
	SuccessorListLen int
	// Replicas is how many copies of each key the ring keeps: the
	// owner's plus Replicas-1 on its successors. Default 2.
	Replicas int
	// RPCTimeoutTicks is the per-attempt request timeout, in ticks.
	// Default 40.
	RPCTimeoutTicks int
	// MaxRetries bounds RPC re-attempts after a failure; the k-th retry
	// first waits 2^(k-1) ticks. Default 3.
	MaxRetries int
	// IdleConnTicks is how long a server keeps an idle inbound
	// connection before closing it. Default 6000 (30s at 5ms ticks).
	IdleConnTicks int
	// ConsumePerTick is a host's compute capacity: task units consumed
	// per tick across all its virtual nodes (the paper's uniform-host
	// assumption; vary per host for the heterogeneous extension).
	// Default 1.
	ConsumePerTick int
	// DecisionEveryTicks is the strategy decision cadence (the paper's
	// DecisionEvery, §V-B). Default 5.
	DecisionEveryTicks int
	// ChurnProb is the per-decision-pass probability that a host leaves
	// and rejoins under a fresh identifier (the networked rendering of
	// the simulator's per-tick churn rate, and like it independent of
	// the strategy). Default 0: no induced churn.
	ChurnProb float64
	// SybilThreshold is the residual workload at or below which a host
	// seeks work by injecting a Sybil. Default 0 (the paper's default).
	SybilThreshold uint64
	// InviteThreshold is the workload strictly above which a node using
	// the invitation strategy calls for help. The paper derives it as
	// twice the initial fair share; the networked runtime has no global
	// task count, so callers set it explicitly. Default 8.
	InviteThreshold uint64
	// MaxSybils caps Sybil identities per host. Default 8.
	MaxSybils int
	// DataDir is the base directory for the nodes' durable segment logs
	// (internal/store). Each node logs under DataDir/node-<id>; empty
	// means memory-backed stores (same semantics, no files, no
	// durability across process restarts).
	DataDir string
	// NoSync disables the fsync-on-acknowledge discipline for durable
	// stores. Writes still hit the log (a graceful close flushes them)
	// but a crash can lose acknowledged writes — only for benchmarks.
	NoSync bool
	// ReadWorkUnits couples the read path to the balancing strategies:
	// every served TGet enqueues this many task units at the serving
	// node, so read pressure (a viral object under the streaming
	// workload, docs/STREAMING.md) registers as workload the paper's
	// strategies can shed — a node drowning in reads stops looking
	// "idle" to the Sybil triggers and starts looking overloaded to the
	// invitation threshold. Default 0: reads are free, exactly the
	// pre-streaming behavior.
	ReadWorkUnits uint64
	// PuzzleBits turns on puzzle-cost identity admission
	// (docs/ADVERSARY.md): every TJoin must carry a nonce solving the
	// adversary package's leading-zeros puzzle over the joiner's ID at
	// this difficulty, or the successor refuses admission. Honest nodes
	// (including balancing strategies minting Sybils) solve it
	// transparently on the join path; the knob's cost is exactly that
	// work. Default 0: admission is free.
	PuzzleBits int
	// DensityThreshold turns on the per-arc ID-density scan
	// (docs/ADVERSARY.md): during maintenance a node inspects its
	// successor-list view and sends TEvict to every identity inside a
	// window packed at least this many times tighter than uniform
	// placement predicts. Honest Sybil balancers are dense by design, so
	// low thresholds evict them too — HostStats.Evictions counts the
	// collateral. Default 0: no scanning.
	DensityThreshold float64
}

// WithDefaults fills unset fields with the defaults above.
func (c Config) WithDefaults() Config {
	if c.TickEvery <= 0 {
		c.TickEvery = 5 * time.Millisecond
	}
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.RPCTimeoutTicks == 0 {
		c.RPCTimeoutTicks = 40
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.IdleConnTicks == 0 {
		c.IdleConnTicks = 6000
	}
	if c.ConsumePerTick == 0 {
		c.ConsumePerTick = 1
	}
	if c.DecisionEveryTicks == 0 {
		c.DecisionEveryTicks = 5
	}
	if c.InviteThreshold == 0 {
		c.InviteThreshold = 8
	}
	if c.MaxSybils == 0 {
		c.MaxSybils = 8
	}
	return c
}

// rpcTimeout is the per-attempt deadline in wall time.
func (c Config) rpcTimeout() time.Duration {
	return time.Duration(c.RPCTimeoutTicks) * c.TickEvery
}

// Ticks converts a tick count to wall time under this config.
func (c Config) Ticks(n int) time.Duration {
	return time.Duration(n) * c.TickEvery
}
