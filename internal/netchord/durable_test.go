package netchord

import (
	"fmt"
	"testing"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/obs"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// getFromRing reads key through any live node, retrying across the
// stabilization cadence while the ring absorbs a failure.
func getFromRing(t *testing.T, cfg Config, nodes []*Node, key ids.ID, timeout time.Duration) ([]byte, uint64, error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		for _, nd := range nodes {
			v, ver, err := nodeClient(nd).GetVer(key)
			if err == nil {
				return v, ver, nil
			}
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, 0, lastErr
		}
		time.Sleep(cfg.Ticks(StabilizeEveryTicks))
	}
}

// TestDurableAckSurvivesOwnerCrash is the headline durability claim:
// with Replicas=2, a write acknowledged by the owner is fsynced locally
// AND applied at one successor before the ack — so crash-stopping the
// owner (R-1 = 1 failure) immediately after the ack can never lose it.
func TestDurableAckSurvivesOwnerCrash(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	nodes := startRing(t, NewPipeTransport(), cfg, 5)
	awaitRing(t, cfg, nodes, 10*time.Second)

	rng := xrand.New(31)
	type acked struct {
		ver   uint64
		value []byte
	}
	writes := make(map[ids.ID]acked)
	for i := 0; i < 24; i++ {
		key := ids.Random(rng)
		val := []byte(fmt.Sprintf("durable-%d", i))
		ver, err := nodeClient(nodes[i%len(nodes)]).PutVer(key, val)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		writes[key] = acked{ver: ver, value: val}
	}

	// Crash-stop one owner — no Leave, no handoff, just gone. Every key
	// it owned must survive on its replica.
	victim := nodes[2]
	victim.Close()
	survivors := append(append([]*Node(nil), nodes[:2]...), nodes[3:]...)

	for key, w := range writes {
		v, ver, err := getFromRing(t, cfg, survivors, key, 15*time.Second)
		if err != nil {
			t.Fatalf("acked write %s unreadable after owner crash: %v", key.Short(), err)
		}
		if ver < w.ver {
			t.Fatalf("acked write %s regressed: ver %d < acked %d", key.Short(), ver, w.ver)
		}
		if ver == w.ver && string(v) != string(w.value) {
			t.Fatalf("acked bytes lost for %s: %q != %q", key.Short(), v, w.value)
		}
	}
}

// TestCrashRestartRecovery proves restart-from-log: a crash-stopped
// node reopened under the same identity and DataDir replays its segment
// log and rejoins holding every key it held before the crash.
func TestCrashRestartRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	nodes := startRing(t, NewPipeTransport(), cfg, 3)
	awaitRing(t, cfg, nodes, 10*time.Second)

	rng := xrand.New(32)
	keys := make([]ids.ID, 16)
	for i := range keys {
		keys[i] = ids.Random(rng)
		if err := nodeClient(nodes[0]).Put(keys[i], []byte("recover-"+keys[i].Short())); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	victim := nodes[1]
	id := victim.ID()
	before := victim.KeyCount()
	victim.Close() // crash-stop: the segment log stays on disk
	// Let the survivors route around the corpse first: a rejoin under
	// the same identity is refused while stale pointers still map that
	// ID to the dead incarnation's address.
	awaitRing(t, cfg, []*Node{nodes[0], nodes[2]}, 10*time.Second)

	// Reopen under the same identity and data directory: the store
	// replays the log before the node touches the network.
	tr := nodes[0].tr
	revived, err := NewNode(cfg, tr, nil, id, "")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(revived.Close)
	if got := revived.KeyCount(); got != before {
		t.Fatalf("replay recovered %d keys, held %d before the crash", got, before)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = revived.Join(nodes[0].Addr()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoin: %v", err)
		}
		time.Sleep(cfg.Ticks(StabilizeEveryTicks))
	}
	revived.Start()
	ring := []*Node{nodes[0], revived, nodes[2]}
	awaitRing(t, cfg, ring, 10*time.Second)

	for _, key := range keys {
		v, _, err := getFromRing(t, cfg, ring, key, 10*time.Second)
		if err != nil {
			t.Fatalf("key %s lost across restart: %v", key.Short(), err)
		}
		if string(v) != "recover-"+key.Short() {
			t.Fatalf("key %s bytes wrong after restart: %q", key.Short(), v)
		}
	}
}

// TestAntiEntropyConvergence diverges a replica by hand and proves the
// background Merkle descent repairs it without any client traffic: the
// owner's primary-arc digest and the replica's copy converge.
func TestAntiEntropyConvergence(t *testing.T) {
	cfg := testConfig()
	nodes := startRing(t, NewPipeTransport(), cfg, 2)
	awaitRing(t, cfg, nodes, 10*time.Second)

	// Write records straight into node 0's store — no replication, the
	// exact state a partition leaves behind.
	rng := xrand.New(33)
	a, b := nodes[0], nodes[1]
	for i := 0; i < 40; i++ {
		key := ids.Random(rng)
		if _, err := a.st.Put(key, []byte("diverged-"+key.Short())); err != nil {
			t.Fatal(err)
		}
	}
	if da, _ := a.st.Digest(ids.Zero, ids.Zero); func() bool {
		db, _ := b.st.Digest(ids.Zero, ids.Zero)
		return da == db
	}() {
		t.Fatal("stores agree before anti-entropy ran; divergence setup failed")
	}

	// On a two-node ring with Replicas=2 each node replicates the
	// other's whole arc, so convergence means full-store equality.
	deadline := time.Now().Add(20 * time.Second)
	for {
		da, na := a.st.Digest(ids.Zero, ids.Zero)
		db, nb := b.st.Digest(ids.Zero, ids.Zero)
		if da == db && na == nb {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("anti-entropy did not converge: %d vs %d keys", na, nb)
		}
		time.Sleep(cfg.Ticks(antiEntropyEveryTicks))
	}
	if a.Stats().AntiEntropyRounds == 0 && b.Stats().AntiEntropyRounds == 0 {
		t.Fatal("converged with zero anti-entropy rounds recorded")
	}
}

// storeReportSeq is a deterministic stream of cumulative host reports
// for driving a collector directly (no network, no goroutines).
func storeReportSeq() []*wire.Msg {
	host1 := ids.FromUint64(101)
	host2 := ids.FromUint64(102)
	h1 := wire.Stats{Hosts: 1, Capacity: 1}
	h2 := h1
	seq := []*wire.Msg{reportMsg(host1, h1), reportMsg(host2, h2)}
	h1.Consumed, h1.Residual, h1.BusyTicks = 10, 2, 9
	seq = append(seq, reportMsg(host1, h1))
	h1.StoreAcked, h1.AntiEntropyRounds, h1.AntiEntropyRepairs, h1.AntiEntropyBytes = 5, 2, 3, 4096
	seq = append(seq, reportMsg(host1, h1))
	h2.StoreAcked, h2.AntiEntropyRounds = 7, 1
	seq = append(seq, reportMsg(host2, h2))
	h1.StoreAcked, h1.AntiEntropyRounds, h1.AntiEntropyRepairs, h1.AntiEntropyBytes = 9, 4, 11, 9999
	seq = append(seq, reportMsg(host1, h1))
	h2.Consumed, h2.BusyTicks = 3, 4
	return append(seq, reportMsg(host2, h2))
}

// TestCollectorStoreReportTracedEqualsUntraced locks the observability
// invariant: a tracer must never change what the collector computes,
// only record it.
func TestCollectorStoreReportTracedEqualsUntraced(t *testing.T) {
	tr := NewPipeTransport()
	plain, err := NewCollector(testConfig(), tr, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sink := &obs.MemSink{}
	traced, err := NewCollector(testConfig(), tr, "", obs.New(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()

	for _, m := range storeReportSeq() {
		answer(plain.handle, m)
		answer(traced.handle, m)
	}
	p, q := plain.Stats(), traced.Stats()
	if p != q {
		t.Fatalf("tracer changed collector state:\nplain:  %+v\ntraced: %+v", p, q)
	}
	if p.StoreAcked != 16 || p.AntiEntropyRounds != 5 || p.AntiEntropyRepairs != 11 || p.AntiEntropyBytes != 9999 {
		t.Fatalf("store aggregation wrong: %+v", p)
	}
	if len(sink.Bytes()) == 0 {
		t.Fatal("traced collector emitted nothing")
	}
}

// TestCollectorEmitZeroAllocsWhenUntraced guards the hot path: with no
// tracer attached, the per-report emit must not allocate.
func TestCollectorEmitZeroAllocsWhenUntraced(t *testing.T) {
	tr := NewPipeTransport()
	c, err := NewCollector(testConfig(), tr, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, m := range storeReportSeq() {
		answer(c.handle, m)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.mu.Lock()
		c.emitLocked()
		c.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("untraced emit allocates %.1f per call", allocs)
	}
}
