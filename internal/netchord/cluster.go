package netchord

import (
	"fmt"
	"sort"
	"time"

	"chordbalance/internal/obs"
	"chordbalance/internal/wire"
)

// Cluster boots and owns a whole single-process wall-clock runtime:
// one collector plus Hosts hosts on a shared transport and fault layer,
// every host and node on its own loops. It exists for cmd/chordd's
// single-process mode, the soak tests and the benchmarks/ harness;
// seeded tests run hosts on a Lockstep (AddHost) instead. Multi-process
// clusters are assembled by running cmd/chordd once per host with the
// same seed address.
type Cluster struct {
	cfg       Config
	tr        Transport
	nf        *NetFaults
	collector *Collector
	hosts     []*Host
}

// NewCluster starts a collector and nhosts hosts: host 0 creates the
// ring, the rest join through host 0's primary. Hosts are created
// sequentially (each join completes before the next starts) and their
// loops all start before NewCluster returns. strat is any name
// strategy.ByName accepts. tracer may be nil; nf may be nil.
func NewCluster(cfg Config, tr Transport, nf *NetFaults, nhosts int, strat string, seed uint64, tracer *obs.Tracer) (*Cluster, error) {
	if nhosts <= 0 {
		return nil, fmt.Errorf("netchord: cluster needs at least one host, got %d", nhosts)
	}
	cfg = cfg.WithDefaults()
	col, err := NewCollector(cfg, tr, "", tracer)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, tr: tr, nf: nf, collector: col}
	for i := 0; i < nhosts; i++ {
		join := ""
		if i > 0 {
			join = c.hosts[0].PrimaryNode().Addr()
		}
		h, err := NewHost(cfg, tr, nf, i, strat, seed, join, col.Addr())
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netchord: host %d: %w", i, err)
		}
		c.hosts = append(c.hosts, h)
	}
	for _, h := range c.hosts {
		h.Start()
	}
	return c, nil
}

// Close shuts down every host, then the collector.
func (c *Cluster) Close() {
	for _, h := range c.hosts {
		h.Close()
	}
	if c.collector != nil {
		c.collector.Close()
	}
}

// Hosts returns the cluster's hosts in index order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Collector returns the cluster's collector.
func (c *Cluster) Collector() *Collector { return c.collector }

// SeedAddr returns host 0's current primary address — the address new
// processes should join through.
func (c *Cluster) SeedAddr() string { return c.hosts[0].PrimaryNode().Addr() }

// Nodes returns every live virtual node across all hosts.
func (c *Cluster) Nodes() []*Node {
	var out []*Node
	for _, h := range c.hosts {
		out = append(out, h.Nodes()...)
	}
	return out
}

// Converged reports whether the ring's pointers agree with the sorted
// membership: every node's predecessor is the previous live ID, and its
// replica set — the first Replicas-1 entries of its successor list,
// led by its successor — the next live IDs clockwise. Successor lists
// settle a stabilization round or so after the successor pointers; a
// write acknowledged before then can leave a replica on a node outside
// the set, which anti-entropy never removes. This is an in-process
// oracle for tests and readiness checks, not something a deployment
// could compute.
func (c *Cluster) Converged() bool {
	nodes := c.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID().Less(nodes[j].ID()) })
	return converged(nodes, c.cfg.Replicas)
}

// AwaitConverged polls Converged until it holds or timeout elapses.
func (c *Cluster) AwaitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if c.Converged() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(c.cfg.Ticks(StabilizeEveryTicks))
	}
}

// FetchStats asks the collector at addr for the cluster view over the
// wire — what cmd/dhtload does to poll for workload completion from
// outside the cluster process.
func FetchStats(tr Transport, cfg Config, addr string) (wire.Stats, error) {
	cfg = cfg.WithDefaults()
	conn, err := tr.Dial(addr, cfg.rpcTimeout())
	if err != nil {
		return wire.Stats{}, err
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(cfg.rpcTimeout())); err != nil {
		return wire.Stats{}, err
	}
	fc := wire.NewConn(conn)
	if err := fc.WriteMsg(&wire.Msg{Type: wire.TStats, Req: 1}); err != nil {
		return wire.Stats{}, err
	}
	var reply wire.Msg
	if err := fc.ReadMsg(&reply); err != nil {
		return wire.Stats{}, err
	}
	if reply.Type != wire.TStatsOK {
		return wire.Stats{}, fmt.Errorf("%w: %s", ErrRemote, reply.Text)
	}
	return wire.DecodeStats(reply.Value)
}
