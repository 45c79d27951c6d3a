// Package sybil tracks the physical machines ("hosts") behind the virtual
// nodes on the ring and enforces the paper's Sybil-attack bookkeeping: how
// many virtual identities a host may project, how strong it is, and how
// much work it can consume per tick.
//
// In the paper's terminology a host's first identity is its real node; any
// additional identities are Sybils. A homogeneous network caps every host
// at maxSybils Sybils and strength 1; a heterogeneous network draws
// strength uniformly from {1..maxSybils} and caps Sybils at the strength
// (§V-B, "Homogeneity").
package sybil

import (
	"fmt"

	"chordbalance/internal/xrand"
)

// Host is one physical participant. Fields are managed by the Pool and the
// simulation engine; strategies observe hosts through read methods only.
type Host struct {
	index    int
	strength int
	maxSybil int
	sybils   int
	alive    bool
}

// Index returns the host's stable identity within its pool.
func (h *Host) Index() int { return h.index }

// Strength returns the host's compute strength (1 in homogeneous networks).
func (h *Host) Strength() int { return h.strength }

// Alive reports whether the host is currently in the network (as opposed
// to sitting in the churn waiting pool).
func (h *Host) Alive() bool { return h.alive }

// SybilCount returns how many Sybil identities the host currently projects
// (not counting its primary identity).
func (h *Host) SybilCount() int { return h.sybils }

// MaxSybils returns the host's Sybil cap.
func (h *Host) MaxSybils() int { return h.maxSybil }

// CanCreateSybil reports whether the host may project one more Sybil.
func (h *Host) CanCreateSybil() bool { return h.alive && h.sybils < h.maxSybil }

// CreatedSybil records a new Sybil identity. It panics when called past
// the cap: the engine must check CanCreateSybil first.
func (h *Host) CreatedSybil() {
	if !h.CanCreateSybil() {
		panic(fmt.Sprintf("sybil: host %d exceeded cap %d", h.index, h.maxSybil))
	}
	h.sybils++
}

// DroppedSybil records a Sybil leaving the ring.
func (h *Host) DroppedSybil() {
	if h.sybils == 0 {
		panic(fmt.Sprintf("sybil: host %d dropped a Sybil it does not have", h.index))
	}
	h.sybils--
}

// SetAlive moves the host in or out of the network. Leaving resets the
// Sybil count (all of a departing host's identities leave with it).
func (h *Host) SetAlive(alive bool) {
	h.alive = alive
	if !alive {
		h.sybils = 0
	}
}

// WorkPerTick returns how many tasks the host completes each tick under
// the given work-measurement rule (§V-B "Work Measurement").
func (h *Host) WorkPerTick(byStrength bool) int {
	if byStrength {
		return h.strength
	}
	return 1
}

// NewStandalone builds a host outside any Pool, for callers that manage
// identity accounting themselves — the simulator's adversary backs its
// hostile virtual nodes with one. The host starts alive; a cap of 0
// means it can never mint a (tracked) Sybil, which keeps standalone
// hosts out of strategies' CanCreateSybil reach. Panics on a negative
// strength or cap, matching NewPool's contract that accounting state is
// valid by construction.
func NewStandalone(index, strength, maxSybil int) *Host {
	if strength < 0 || maxSybil < 0 {
		panic(fmt.Sprintf("sybil: standalone host %d with negative strength %d or cap %d",
			index, strength, maxSybil))
	}
	return &Host{index: index, strength: strength, maxSybil: maxSybil, alive: true}
}

// PoolConfig describes how to build a host population.
type PoolConfig struct {
	// Hosts is the number of machines initially in the network.
	Hosts int
	// WaitingHosts is the size of the churn waiting pool (the paper starts
	// it equal to Hosts).
	WaitingHosts int
	// Heterogeneous draws strengths from U{1..MaxSybils} when true.
	Heterogeneous bool
	// MaxSybils is the Sybil cap (and the strength ceiling when
	// heterogeneous). The paper's default is 5.
	MaxSybils int
}

// Pool owns every host in an experiment: the live network plus the churn
// waiting pool.
type Pool struct {
	hosts []*Host
	cfg   PoolConfig
}

// NewPool builds the host population. rng drives heterogeneous strength
// draws; it may be nil for homogeneous pools.
func NewPool(cfg PoolConfig, rng *xrand.Rand) *Pool {
	if cfg.MaxSybils < 1 {
		panic("sybil: MaxSybils must be >= 1")
	}
	if cfg.Heterogeneous && rng == nil {
		panic("sybil: heterogeneous pool needs an RNG")
	}
	total := cfg.Hosts + cfg.WaitingHosts
	p := &Pool{hosts: make([]*Host, total), cfg: cfg}
	slab := make([]Host, total) // one allocation for the population
	for i := range p.hosts {
		strength, cap := 1, cfg.MaxSybils
		if cfg.Heterogeneous {
			strength = rng.IntRange(1, cfg.MaxSybils)
			cap = strength
		}
		slab[i] = Host{
			index:    i,
			strength: strength,
			maxSybil: cap,
			alive:    i < cfg.Hosts,
		}
		p.hosts[i] = &slab[i]
	}
	return p
}

// Len returns the total number of hosts (live + waiting).
func (p *Pool) Len() int { return len(p.hosts) }

// Host returns the i-th host.
func (p *Pool) Host(i int) *Host { return p.hosts[i] }

// Alive returns the hosts currently in the network, in index order.
// The slice is freshly allocated; callers may keep it across mutations at
// the price of staleness.
func (p *Pool) Alive() []*Host {
	out := make([]*Host, 0, p.cfg.Hosts)
	for _, h := range p.hosts {
		if h.alive {
			out = append(out, h)
		}
	}
	return out
}

// Waiting returns the hosts in the churn pool, in index order.
func (p *Pool) Waiting() []*Host {
	out := make([]*Host, 0, p.cfg.WaitingHosts)
	for _, h := range p.hosts {
		if !h.alive {
			out = append(out, h)
		}
	}
	return out
}

// AliveCount returns how many hosts are in the network.
func (p *Pool) AliveCount() int {
	n := 0
	for _, h := range p.hosts {
		if h.alive {
			n++
		}
	}
	return n
}

// TotalStrength sums WorkPerTick over the live hosts; the denominator of
// the paper's ideal runtime.
func (p *Pool) TotalStrength(byStrength bool) int {
	sum := 0
	for _, h := range p.hosts {
		if h.alive {
			sum += h.WorkPerTick(byStrength)
		}
	}
	return sum
}
