package netchord

import (
	"errors"
	"sort"
	"testing"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// testConfig is a fast clock for tests: 1ms ticks so stabilization and
// backoff complete quickly without becoming scheduling-sensitive.
func testConfig() Config {
	return Config{TickEvery: time.Millisecond}.WithDefaults()
}

// nodeClient returns a Client that enters the ring at n and sends every
// RPC through n's own peer pool, so n's NetFaults apply to each hop. Its
// idempotency salt comes from a fresh node token, so task submissions
// through separate calls never share a token. The client shares n's
// pool: closing n closes it.
func nodeClient(n *Node) *Client { return newClient(n.pool, n.ref, n.newToken()) }

// startRing boots n standalone nodes on tr with deterministic IDs,
// joins 1..n-1 through node 0, starts them all, and registers cleanup.
func startRing(t *testing.T, tr Transport, cfg Config, n int) []*Node {
	t.Helper()
	rng := xrand.New(42)
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nd, err := NewNode(cfg, tr, nil, ids.Random(rng), "")
		if err != nil {
			t.Fatalf("NewNode %d: %v", i, err)
		}
		if i == 0 {
			nd.Create()
		} else if err := nd.Join(nodes[0].Addr()); err != nil {
			t.Fatalf("Join %d: %v", i, err)
		}
		nd.Start()
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// awaitRing polls until every node's successor/predecessor pointers
// agree with the sorted membership.
func awaitRing(t *testing.T, cfg Config, nodes []*Node, timeout time.Duration) {
	t.Helper()
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID().Less(sorted[j].ID()) })
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for i, nd := range sorted {
			next := sorted[(i+1)%len(sorted)]
			prev := sorted[(i-1+len(sorted))%len(sorted)]
			if nd.Successor().ID != next.ID() {
				ok = false
				break
			}
			pred, has := nd.Predecessor()
			if !has || pred.ID != prev.ID() {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not converge within %v", timeout)
		}
		time.Sleep(cfg.Ticks(StabilizeEveryTicks))
	}
}

func TestRingConvergesAndRoutes(t *testing.T) {
	cfg := testConfig()
	nodes := startRing(t, NewPipeTransport(), cfg, 8)
	awaitRing(t, cfg, nodes, 10*time.Second)

	// Every node resolves every key to the same owner, and the owner is
	// correct by the sorted-ring oracle.
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID().Less(sorted[j].ID()) })
	owner := func(key ids.ID) ids.ID {
		for _, nd := range sorted {
			if !nd.ID().Less(key) {
				return nd.ID() // first ID >= key owns it
			}
		}
		return sorted[0].ID() // wraps past the top of the space
	}
	rng := xrand.New(7)
	for trial := 0; trial < 32; trial++ {
		key := ids.Random(rng)
		want := owner(key)
		for _, nd := range nodes {
			got, _, err := nd.Lookup(key)
			if err != nil {
				t.Fatalf("lookup from %s: %v", nd.ID().Short(), err)
			}
			if got.ID != want {
				t.Fatalf("lookup %s from %s: got owner %s, want %s",
					key.Short(), nd.ID().Short(), got.ID.Short(), want.Short())
			}
		}
	}
}

func TestPutGetAcrossNodes(t *testing.T) {
	cfg := testConfig()
	nodes := startRing(t, NewPipeTransport(), cfg, 6)
	awaitRing(t, cfg, nodes, 10*time.Second)

	rng := xrand.New(11)
	keys := make([]ids.ID, 24)
	for i := range keys {
		keys[i] = ids.Random(rng)
		if err := nodeClient(nodes[i%len(nodes)]).Put(keys[i], []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i, k := range keys {
		v, err := nodeClient(nodes[(i+3)%len(nodes)]).Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("get %d: got %v", i, v)
		}
	}
	if _, err := nodeClient(nodes[0]).Get(ids.Random(rng)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
}

func TestLeaveHandsOffKeysAndTasks(t *testing.T) {
	cfg := testConfig()
	nodes := startRing(t, NewPipeTransport(), cfg, 5)
	awaitRing(t, cfg, nodes, 10*time.Second)

	rng := xrand.New(3)
	keys := make([]ids.ID, 20)
	for i := range keys {
		keys[i] = ids.Random(rng)
		if err := nodeClient(nodes[0]).Put(keys[i], []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := nodeClient(nodes[0]).SubmitTask(keys[i], 2); err != nil {
			t.Fatalf("task: %v", err)
		}
	}
	var total uint64
	for _, nd := range nodes {
		total += nd.TaskUnits()
	}
	if total != 40 {
		t.Fatalf("task units before leave: got %d, want 40", total)
	}

	if err := nodes[2].Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	rest := append(append([]*Node(nil), nodes[:2]...), nodes[3:]...)
	awaitRing(t, cfg, rest, 10*time.Second)

	for i, k := range keys {
		if _, err := nodeClient(rest[i%len(rest)]).Get(k); err != nil {
			t.Fatalf("get %s after leave: %v", k.Short(), err)
		}
	}
	total = 0
	for _, nd := range rest {
		total += nd.TaskUnits()
	}
	if total != 40 {
		t.Fatalf("task units after leave: got %d, want 40 (work lost or duplicated)", total)
	}
}

func TestRPCRetriesAndTimeout(t *testing.T) {
	cfg := Config{TickEvery: time.Millisecond, RPCTimeoutTicks: 5, MaxRetries: 2}.WithDefaults()
	tr := NewPipeTransport()
	nd, err := NewNode(cfg, tr, nil, ids.FromUint64(1), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Close)
	nd.Create()
	nd.Start()

	start := time.Now()
	err = nd.Ping(wire.NodeRef{ID: ids.FromUint64(2), Addr: "pipe:dead"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping dead addr: got %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop took %v, budget blown", elapsed)
	}
	st := nd.Stats().RPC
	if st.Calls != 1 || st.Retries != int64(cfg.MaxRetries) || st.Timeouts != 1 {
		t.Fatalf("rpc stats: %+v", st)
	}
	if st.BackoffTicks == 0 {
		t.Fatalf("expected backoff to be charged, got %+v", st)
	}
}

func TestPartitionRefusalAndHeal(t *testing.T) {
	cfg := testConfig()
	nf, err := NewNetFaults(faults.Plan{Seed: 9}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewPipeTransport()
	rng := xrand.New(42)
	a, err := NewNode(cfg, tr, nf, ids.Random(rng), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	a.Create()
	a.Start()
	b, err := NewNode(cfg, tr, nf, ids.Random(rng), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	b.Start()

	// Cut the ring so a and b land on different sides, then verify the
	// client refuses instead of burning the full timeout.
	if err := nf.ForcePartition(0.5); err != nil {
		t.Fatal(err)
	}
	if nf.SameSide(a.ID(), b.ID()) {
		t.Skip("both IDs landed on one side of the 0.5 cut; nothing to assert")
	}
	if err := a.Ping(b.Ref()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping across partition: got %v, want ErrTimeout", err)
	}
	if nf.Stats().PartitionRefusals == 0 {
		t.Fatalf("expected client-side refusals, stats %+v", nf.Stats())
	}
	nf.Heal()
	if err := a.Ping(b.Ref()); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
}

func TestDropsAreRetriedTransparently(t *testing.T) {
	cfg := Config{TickEvery: time.Millisecond, RPCTimeoutTicks: 20, MaxRetries: 6}.WithDefaults()
	nf, err := NewNetFaults(faults.Plan{Seed: 5, DropRate: 0.2, DupRate: 0.1}, cfg.TickEvery)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewPipeTransport()
	rng := xrand.New(1)
	a, err := NewNode(cfg, tr, nf, ids.Random(rng), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	a.Create()
	a.Start()
	b, err := NewNode(cfg, tr, nf, ids.Random(rng), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	b.Start()

	// 20% frame loss each way (a round trip survives with p ≈ 0.64 per
	// attempt) across 7 attempts: 200 pings virtually all succeed.
	failed := 0
	for i := 0; i < 200; i++ {
		if err := a.Ping(b.Ref()); err != nil {
			failed++
		}
	}
	if failed > 3 {
		t.Fatalf("%d/200 pings failed under 20%% drop with retries", failed)
	}
	if nf.Stats().Drops == 0 {
		t.Fatalf("fault layer injected nothing: %+v", nf.Stats())
	}
}

func TestTCPTransportSmoke(t *testing.T) {
	cfg := testConfig()
	nodes := startRing(t, TCP{}, cfg, 3)
	awaitRing(t, cfg, nodes, 10*time.Second)
	key := ids.FromUint64(99)
	if err := nodeClient(nodes[1]).Put(key, []byte("tcp")); err != nil {
		t.Fatal(err)
	}
	v, err := nodeClient(nodes[2]).Get(key)
	if err != nil || string(v) != "tcp" {
		t.Fatalf("get over tcp: %q, %v", v, err)
	}
}

func TestServerRejectsGarbageFrames(t *testing.T) {
	cfg := testConfig()
	tr := NewPipeTransport()
	nd, err := NewNode(cfg, tr, nil, ids.FromUint64(1), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Close)
	nd.Create()
	nd.Start()

	conn, err := tr.Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The write may itself error: net.Pipe is synchronous, so when the
	// server rejects the bad header and closes, the unread tail of our
	// write fails. Either way the server must survive it.
	_, _ = conn.Write([]byte("XX garbage that is not a frame"))
	// The server must drop the connection, not crash: a subsequent
	// well-formed request on a fresh connection still works.
	if err := nd.Ping(nd.Ref()); err != nil {
		t.Fatalf("node unhealthy after garbage: %v", err)
	}
}
