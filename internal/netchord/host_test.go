package netchord

import (
	"sort"
	"testing"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/strategy"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// sharedRing boots an 8-host ring running "none" with a three-entry
// successor list, waits for it to converge, and returns its hosts in
// ring order of their primaries.
func sharedRing(t *testing.T, cfg Config) (*Cluster, []*Host) {
	t.Helper()
	cfg.SuccessorListLen = 3
	c, err := NewCluster(cfg, NewPipeTransport(), nil, 8, StrategyNone, 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if !c.AwaitConverged(30 * time.Second) {
		t.Fatal("ring did not converge")
	}
	ring := append([]*Host(nil), c.Hosts()...)
	sort.Slice(ring, func(i, j int) bool {
		return ring[i].PrimaryNode().ID().Less(ring[j].PrimaryNode().ID())
	})
	return c, ring
}

// load submits units of work owned by h's primary.
func load(t *testing.T, h *Host, units uint64) {
	t.Helper()
	if err := nodeClient(h.PrimaryNode()).SubmitTask(h.PrimaryNode().ID(), units); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// served sums the requests of one type every node has handled.
func served(c *Cluster, typ wire.Type) int64 {
	var sum int64
	for _, n := range c.Nodes() {
		sum += n.Stats().Served[typ]
	}
	return sum
}

// sybilAt waits for h to hold exactly one Sybil and checks that it sits
// at want, up to the 64-bit jitter in its low bytes.
func sybilAt(t *testing.T, h *Host, want ids.ID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.SybilCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	nodes := h.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("host %d has %d identities, want a primary and one Sybil", h.Index(), len(nodes))
	}
	got := nodes[1].ID()
	if [ids.Bytes - 8]byte(got[:ids.Bytes-8]) != [ids.Bytes - 8]byte(want[:ids.Bytes-8]) {
		t.Errorf("Sybil at %s, want %s up to the low 64 bits", got.Short(), want.Short())
	}
}

// decide runs one pass of the named strategy through h's World and
// returns the workload queries and invitations it sent.
func decide(t *testing.T, c *Cluster, h *Host, name string) (queries, invites int64) {
	t.Helper()
	s, ok := strategy.ByName(name)
	if !ok {
		t.Fatalf("no strategy %q", name)
	}
	q0, i0 := served(c, wire.TWorkloadQuery), served(c, wire.TInvite)
	s.Decide(h)
	return served(c, wire.TWorkloadQuery) - q0, served(c, wire.TInvite) - i0
}

// TestHostRunsSharedStrategies runs internal/strategy's rules through a
// live host's World: each lands its Sybil where the rule says, using
// only the messages the rule charges for.
func TestHostRunsSharedStrategies(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		c, ring := sharedRing(t, clusterConfig())
		q, inv := decide(t, c, ring[0], "random")
		if q != 0 || inv != 0 {
			t.Errorf("random sent %d workload queries and %d invites, want none", q, inv)
		}
		if n := ring[0].SybilCount(); n != 1 {
			t.Errorf("idle host holds %d Sybils after one random pass, want 1", n)
		}
	})

	t.Run("neighbor", func(t *testing.T) {
		c, ring := sharedRing(t, clusterConfig())
		// The largest of the three successor arcs, by ID distance alone.
		best := 1
		for i := 2; i <= 3; i++ {
			arc := ring[i-1].PrimaryNode().ID().Distance(ring[i].PrimaryNode().ID())
			if arc.Compare(ring[best-1].PrimaryNode().ID().Distance(ring[best].PrimaryNode().ID())) > 0 {
				best = i
			}
		}
		q, inv := decide(t, c, ring[0], "neighbor")
		if q != 0 || inv != 0 {
			t.Errorf("neighbor sent %d workload queries and %d invites, want none", q, inv)
		}
		sybilAt(t, ring[0], ids.Midpoint(ring[best-1].PrimaryNode().ID(), ring[best].PrimaryNode().ID()))
	})

	t.Run("smart-neighbor", func(t *testing.T) {
		c, ring := sharedRing(t, clusterConfig())
		// Load the smallest successor arc heaviest, so the pick differs
		// from neighbor's arc-size estimate.
		heavy := 1
		for i := 2; i <= 3; i++ {
			arc := ring[i-1].PrimaryNode().ID().Distance(ring[i].PrimaryNode().ID())
			if arc.Less(ring[heavy-1].PrimaryNode().ID().Distance(ring[heavy].PrimaryNode().ID())) {
				heavy = i
			}
		}
		for i := 1; i <= 3; i++ {
			units := uint64(10000)
			if i == heavy {
				units = 30000
			}
			load(t, ring[i], units)
		}
		q, inv := decide(t, c, ring[0], "smart-neighbor")
		if q != 3 || inv != 0 {
			t.Errorf("smart-neighbor sent %d workload queries and %d invites, want 3 and 0", q, inv)
		}
		sybilAt(t, ring[0], ids.Midpoint(ring[heavy-1].PrimaryNode().ID(), ring[heavy].PrimaryNode().ID()))
	})

	t.Run("invitation", func(t *testing.T) {
		cfg := clusterConfig()
		cfg.SybilThreshold = 50000
		cfg.InviteThreshold = 100000
		c, ring := sharedRing(t, cfg)
		// ring[4] is overloaded; its three predecessors all qualify, and
		// the middle one is the least loaded — not the nearest.
		load(t, ring[4], 400000)
		load(t, ring[3], 30000)
		load(t, ring[2], 10000)
		load(t, ring[1], 20000)
		q, inv := decide(t, c, ring[4], "invitation")
		if q != 3 || inv != 1 {
			t.Errorf("invitation sent %d workload queries and %d invites, want 3 probes and 1 invite", q, inv)
		}
		sybilAt(t, ring[2], ids.Midpoint(ring[3].PrimaryNode().ID(), ring[4].PrimaryNode().ID()))
		for _, h := range []*Host{ring[1], ring[3], ring[4]} {
			if n := h.SybilCount(); n != 0 {
				t.Errorf("host %d injected %d Sybils; only the least-loaded predecessor helps", h.Index(), n)
			}
		}
	})
}

// TestRetiredSybilKeepsUndeliveredWork retires a Sybil holding task
// units, by density eviction and by DropSybils, across a network that
// drops every frame: no hand-off can succeed, and the units must stay
// on the host, re-owned at its primary.
func TestRetiredSybilKeepsUndeliveredWork(t *testing.T) {
	cfg := clusterConfig()
	nf, err := NewNetFaults(faults.Plan{Seed: 5, DropRate: 1}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(cfg, NewPipeTransport(), nf, 0, StrategyNone, 3, "", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	primary := h.PrimaryNode()
	rng := xrand.New(9)
	// attach gives the host a Sybil holding units whose only hand-off
	// target is the primary, behind the lossy network.
	attach := func(units uint64) *Node {
		s, err := NewNode(h.cfg, h.tr, h.nf, ids.Random(rng), "")
		if err != nil {
			t.Fatal(err)
		}
		s.host = h
		s.Create()
		s.mu.Lock()
		s.succ = []wire.NodeRef{primary.Ref()}
		s.addTaskLocked(ids.Random(rng), units)
		s.mu.Unlock()
		h.mu.Lock()
		h.sybils = append(h.sybils, s)
		h.mu.Unlock()
		return s
	}
	primary.mu.Lock()
	primary.addTaskLocked(primary.ID(), 40)
	primary.mu.Unlock()
	before := h.Workload()

	s := attach(64)
	h.considerEvict(s)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.mu.Lock()
		done := !h.evicting
		h.mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.Workload(); got != before+64 {
		t.Errorf("after evicting a Sybil: host holds %d units, want %d", got, before+64)
	}

	attach(32)
	h.DropSybils()
	if got := h.Workload(); got != before+96 {
		t.Errorf("after dropping a Sybil: host holds %d units, want %d", got, before+96)
	}
	if n := len(h.Nodes()); n != 1 {
		t.Errorf("host keeps %d identities, want only its primary", n)
	}
}
