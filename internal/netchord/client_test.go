package netchord

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// arcNode returns a node that is not started, with identity id and
// predecessor pred (none when pred is zero), for driving handle directly.
func arcNode(t *testing.T, tr Transport, id, pred uint64) *Node {
	t.Helper()
	n, err := NewNode(testConfig(), tr, nil, ids.FromUint64(id), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.succ = []wire.NodeRef{n.ref}
	if pred != 0 {
		n.pred = wire.NodeRef{ID: ids.FromUint64(pred), Addr: "pipe:pred"}
		n.hasPred = true
	}
	return n
}

// answer runs handle on req with a fresh reply, as serveConn does for
// one request, and returns the reply.
func answer(handle func(req, reply *wire.Msg), req *wire.Msg) *wire.Msg {
	reply := new(wire.Msg)
	handle(req, reply)
	return reply
}

// isNotOwner reports whether reply is a CodeNotOwner refusal.
func isNotOwner(reply *wire.Msg) bool {
	return reply.Type == wire.TError && reply.A == CodeNotOwner
}

func TestHandleRefusesKeysOutsideArc(t *testing.T) {
	tr := NewPipeTransport()
	n := arcNode(t, tr, 100, 50) // arc (50, 100]
	outside := ids.FromUint64(30)
	appends, units := n.st.Stats().Appends, n.TaskUnits()

	for _, req := range []*wire.Msg{
		{Type: wire.TGet, Key: outside},
		{Type: wire.TPut, Key: outside, Value: []byte("v")},
		{Type: wire.TTask, Key: outside, A: 3, B: 77},
	} {
		if reply := answer(n.handler(), req); !isNotOwner(reply) {
			t.Fatalf("%v for a key outside (pred, self]: got %v code %d, want CodeNotOwner", req.Type, reply.Type, reply.A)
		}
	}
	if got := n.st.Stats().Appends; got != appends {
		t.Fatalf("refused requests appended %d records", got-appends)
	}
	if got := n.TaskUnits(); got != units {
		t.Fatalf("refused task changed the node's units %d -> %d", units, got)
	}
	for _, k := range []uint64{51, 100} {
		if reply := answer(n.handler(), &wire.Msg{Type: wire.TGet, Key: ids.FromUint64(k)}); reply.Type != wire.TGetOK {
			t.Fatalf("get of %d inside (50, 100]: got %v", k, reply.Type)
		}
	}
}

func TestRefusedTaskAppliesOnceAtOwner(t *testing.T) {
	tr := NewPipeTransport()
	refuser := arcNode(t, tr, 100, 50) // arc (50, 100]
	owner := arcNode(t, tr, 50, 10)    // arc (10, 50]
	task := &wire.Msg{Type: wire.TTask, Key: ids.FromUint64(30), A: 3, B: 4242}

	if reply := answer(refuser.handler(), task); !isNotOwner(reply) {
		t.Fatalf("task outside the arc: got %v, want a refusal", reply.Type)
	}
	// Re-sent to the true owner, then re-sent again (a lost reply): the
	// token makes it land exactly once.
	for i := 0; i < 2; i++ {
		if reply := answer(owner.handler(), task); reply.Type != wire.TAck {
			t.Fatalf("task at its owner, send %d: got %v", i, reply.Type)
		}
	}
	if got := owner.TaskUnits(); got != 3 {
		t.Fatalf("owner holds %d units after a refused send and two owner sends, want 3", got)
	}
	if got := refuser.TaskUnits(); got != 0 {
		t.Fatalf("refuser holds %d units", got)
	}
	// The refusal did not consume the token at the refuser: once its arc
	// covers the key the same token still applies there.
	refuser.mu.Lock()
	refuser.pred.ID = ids.FromUint64(10)
	refuser.mu.Unlock()
	if reply := answer(refuser.handler(), task); reply.Type != wire.TAck || refuser.TaskUnits() != 3 {
		t.Fatalf("token was consumed by the refusal: reply %v, units %d", reply.Type, refuser.TaskUnits())
	}
}

func TestNodeWithoutPredecessorAcceptsEveryKey(t *testing.T) {
	n := arcNode(t, NewPipeTransport(), 100, 0)
	rng := xrand.New(5)
	for i := 0; i < 16; i++ {
		key := ids.Random(rng)
		for _, req := range []*wire.Msg{
			{Type: wire.TPut, Key: key, Value: []byte("v")},
			{Type: wire.TGet, Key: key},
			{Type: wire.TTask, Key: key, A: 1},
		} {
			if reply := answer(n.handler(), req); reply.Type == wire.TError {
				t.Fatalf("%v of %s at a node with no predecessor: refused (%s)", req.Type, key.Short(), reply.Text)
			}
		}
	}
	if got := n.TaskUnits(); got != 16 {
		t.Fatalf("task units %d, want 16", got)
	}
}

func TestRouteCacheSuccessor(t *testing.T) {
	var rc routeCache
	if _, ok := rc.successor(ids.FromUint64(1)); ok {
		t.Fatal("empty cache answered")
	}
	ref := func(id uint64, addr string) wire.NodeRef {
		return wire.NodeRef{ID: ids.FromUint64(id), Addr: addr}
	}
	for _, r := range []wire.NodeRef{ref(30, "c"), ref(10, "a"), ref(20, "b"), ref(20, "b")} {
		rc.remember(r)
	}
	for _, c := range []struct{ key, want uint64 }{{5, 10}, {10, 10}, {11, 20}, {30, 30}, {31, 10}} {
		if got, _ := rc.successor(ids.FromUint64(c.key)); got.ID != ids.FromUint64(c.want) {
			t.Fatalf("successor(%d) = %s, want %d", c.key, got.ID.Short(), c.want)
		}
	}
	// A node re-keyed at the same address, and an identity moved to a new
	// address, each replace the old entry.
	rc.remember(ref(25, "b"))
	rc.remember(ref(10, "d"))
	want := []wire.NodeRef{ref(10, "d"), ref(25, "b"), ref(30, "c")}
	if len(rc.refs) != len(want) {
		t.Fatalf("cache %v, want %v", rc.refs, want)
	}
	for i := range want {
		if rc.refs[i] != want[i] {
			t.Fatalf("cache %v, want %v", rc.refs, want)
		}
	}
	rc.forget(ref(25, "elsewhere")) // not cached under that address: kept
	rc.forget(ref(30, "c"))
	if got, _ := rc.successor(ids.FromUint64(26)); got != ref(10, "d") {
		t.Fatalf("after forgetting 30, successor(26) = %v, want the wrap to 10", got)
	}

	key := ids.FromUint64(12)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = rc.successor(key) }); allocs != 0 {
		t.Fatalf("cache-hit owner lookup allocates %.0f times, want 0", allocs)
	}
}

// poolKeys draws n random keys.
func poolKeys(seed uint64, n int) []ids.ID {
	rng := xrand.New(seed)
	out := make([]ids.ID, n)
	for i := range out {
		out[i] = ids.Random(rng)
	}
	return out
}

func TestClientOneRoundTrip(t *testing.T) {
	cfg := testConfig()
	tr := NewPipeTransport()
	nodes := startRing(t, tr, cfg, 12)
	awaitRing(t, cfg, nodes, 20*time.Second)
	c := NewClient(cfg, tr, nodes[0].Addr(), 1)
	t.Cleanup(c.Close)

	pool := poolKeys(12, 512)
	for _, k := range pool {
		if _, err := c.PutVer(k, []byte(k.Short())); err != nil {
			t.Fatalf("warm-up put %s: %v", k.Short(), err)
		}
	}
	calls0 := c.Stats().Calls
	hits0, lookups0 := c.RouteStats()
	for _, k := range pool {
		v, err := c.Get(k)
		if err != nil || string(v) != k.Short() {
			t.Fatalf("get %s = %q, %v", k.Short(), v, err)
		}
		if _, err := c.PutVer(k, []byte("again")); err != nil {
			t.Fatalf("put %s: %v", k.Short(), err)
		}
	}
	ops := uint64(2 * len(pool))
	hits, lookups := c.RouteStats()
	if calls := c.Stats().Calls - calls0; calls != int64(ops) {
		t.Fatalf("%d client RPCs for %d warm ops, want exactly one each", calls, ops)
	}
	if hits-hits0 != ops || lookups != lookups0 {
		t.Fatalf("warm ops: %d hits and %d lookups for %d ops, want %d and 0", hits-hits0, lookups-lookups0, ops, ops)
	}
}

func TestClientRouteFollowsOwnership(t *testing.T) {
	cfg := testConfig()
	tr := NewPipeTransport()
	nodes := startRing(t, tr, cfg, 12)
	awaitRing(t, cfg, nodes, 20*time.Second)
	c := NewClient(cfg, tr, nodes[0].Addr(), 2)
	t.Cleanup(c.Close)

	pool := poolKeys(13, 512)
	acked := make(map[ids.ID]uint64, len(pool))
	for _, k := range pool {
		ver, err := c.PutVer(k, []byte(k.Short()))
		if err != nil {
			t.Fatalf("warm-up put %s: %v", k.Short(), err)
		}
		acked[k] = ver
	}

	// Ownership moves under the warm cache. One node leaves gracefully:
	// its arc passes to its successor and its cache entry goes dead.
	departed := nodes[5]
	if err := departed.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	rest := append(append([]*Node(nil), nodes[:5]...), nodes[6:]...)
	awaitRing(t, cfg, rest, 20*time.Second)

	// One node joins halfway between two cached owners, taking the half
	// of the arc with the most pool keys, so the cached successor of
	// those keys now refuses them.
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID().Less(rest[j].ID()) })
	var mid ids.ID
	best := -1
	for i, b := range rest {
		a := rest[(i+len(rest)-1)%len(rest)]
		m := ids.Midpoint(a.ID(), b.ID())
		inside := 0
		for _, k := range pool {
			if ids.BetweenRightIncl(k, a.ID(), m) {
				inside++
			}
		}
		if inside > best {
			mid, best = m, inside
		}
	}
	if best == 0 {
		t.Fatal("no arc half holds a pool key")
	}
	joiner, err := NewNode(cfg, tr, nil, mid, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	joiner.Start()

	// Straight into the join window: every read, from the client and
	// from a node, returns at least the acknowledged version.
	for _, k := range pool {
		if _, ver, err := c.GetVer(k); err != nil || ver < acked[k] {
			t.Fatalf("client read of %s: ver %d, err %v; acknowledged at %d", k.Short(), ver, err, acked[k])
		}
		if _, ver, err := nodeClient(nodes[0]).GetVer(k); err != nil || ver < acked[k] {
			t.Fatalf("node read of %s: ver %d, err %v; acknowledged at %d", k.Short(), ver, err, acked[k])
		}
	}
	if c.refused.Load() == 0 {
		t.Fatalf("no cached owner refused a key of the joiner's %d", best)
	}
	if _, lookups := c.RouteStats(); lookups == 0 {
		t.Fatal("ownership moved but the client never looked an owner up")
	}
	c.routes.mu.RLock()
	defer c.routes.mu.RUnlock()
	if slices.Contains(c.routes.refs, departed.Ref()) {
		t.Fatalf("departed node %s still cached after its transport error", departed.ID().Short())
	}
	if !slices.Contains(c.routes.refs, joiner.Ref()) {
		t.Fatal("the joiner was never remembered")
	}
}

func TestGetFromNonOwnerIsRefused(t *testing.T) {
	cfg := testConfig()
	tr := NewPipeTransport()
	nodes := startRing(t, tr, cfg, 4)
	awaitRing(t, cfg, nodes, 10*time.Second)
	c := NewClient(cfg, tr, nodes[0].Addr(), 3)
	t.Cleanup(c.Close)

	key := ids.FromUint64(99)
	if err := c.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	owner, err := c.Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		_, _, err := c.GetFrom(n.Ref(), key)
		if n.ID() == owner.ID && err != nil {
			t.Fatalf("get from the owner: %v", err)
		}
		// Replicas hold the key too, but only the owner may serve it.
		if n.ID() != owner.ID && !(errors.Is(err, ErrNotOwner) && errors.Is(err, ErrRemote)) {
			t.Fatalf("get from non-owner %s: %v, want ErrNotOwner wrapped with ErrRemote", n.ID().Short(), err)
		}
	}
}

func TestClientConcurrentOps(t *testing.T) {
	cfg := testConfig()
	tr := NewPipeTransport()
	nodes := startRing(t, tr, cfg, 6)
	awaitRing(t, cfg, nodes, 10*time.Second)
	c := NewClient(cfg, tr, nodes[0].Addr(), 4)
	t.Cleanup(c.Close)

	// A cold cache filled by several goroutines at once.
	pool := poolKeys(14, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += 4 {
				if err := c.Put(pool[i], []byte{byte(i)}); err != nil {
					t.Errorf("put %d: %v", i, err)
					return
				}
				// The neighbouring key is another goroutine's: it may not
				// be written yet.
				v, err := c.Get(pool[(i+1)%len(pool)])
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil || len(v) != 1 {
					t.Errorf("get %d: %v %v", i, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, _ := c.RouteStats(); hits == 0 {
		t.Fatal("no operation was served off the cache")
	}
}
