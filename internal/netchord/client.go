package netchord

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// Client is a pure wire-protocol client: it performs iterative lookups
// and key/task operations through any ring member without being one.
// It is the package's only origin of Put, Get and SubmitTask requests;
// a Node serves them but never originates one. cmd/dhtload is its main
// user — a load generator must not occupy an identifier on the ring it
// is measuring, or it would attract a share of the workload it is
// supposed to impose.
//
// Keyed operations (Get, Put, SubmitTask) route through an owner cache:
// every owner the client has been routed to, sorted by ID. A key goes
// to its successor among the cached owners, so the steady state is one
// round trip per operation. Servers refuse keys outside their arc with
// CodeNotOwner, which is what keeps the cache honest while churn and
// Sybil injection move ownership under it.
//
// A Client is safe for concurrent use; each peer address gets one
// pooled connection with the same retry/backoff policy as node-to-node
// RPCs.
type Client struct {
	cfg    Config
	pool   *peerPool
	seed   wire.NodeRef
	id     ids.ID
	salt   uint64
	seq    atomic.Uint64
	routes routeCache

	hits, lookups, refused atomic.Uint64
}

// routeCache is the owners a client has been routed to, ascending by
// ID. Its size is bounded by ring membership, not by key count.
type routeCache struct {
	mu   sync.RWMutex
	refs []wire.NodeRef
}

// search returns the index of the first cached owner whose ID is at or
// after key; callers hold mu.
func (rc *routeCache) search(key ids.ID) int {
	i, _ := slices.BinarySearchFunc(rc.refs, key, func(r wire.NodeRef, k ids.ID) int { return r.ID.Compare(k) })
	return i
}

// successor returns key's successor among the cached owners, wrapping
// past the top of the identifier space.
func (rc *routeCache) successor(key ids.ID) (wire.NodeRef, bool) {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	if len(rc.refs) == 0 {
		return wire.NodeRef{}, false
	}
	i := rc.search(key)
	if i == len(rc.refs) {
		i = 0
	}
	return rc.refs[i], true
}

// remember caches r, replacing any entry with the same ID or the same
// address (a node re-keyed by churn, or an identity at a new address).
func (rc *routeCache) remember(r wire.NodeRef) {
	if r.Addr == "" {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if i := rc.search(r.ID); i < len(rc.refs) && rc.refs[i] == r {
		return
	}
	rc.refs = slices.DeleteFunc(rc.refs, func(c wire.NodeRef) bool { return c.ID == r.ID || c.Addr == r.Addr })
	rc.refs = slices.Insert(rc.refs, rc.search(r.ID), r)
}

// forget drops r, a cached owner that failed.
func (rc *routeCache) forget(r wire.NodeRef) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if i := rc.search(r.ID); i < len(rc.refs) && rc.refs[i] == r {
		rc.refs = slices.Delete(rc.refs, i, i+1)
	}
}

// NewClient returns a client that routes through seedAddr. seed feeds
// the client's idempotency-token salt, so two load generators with
// different seeds can never collide in a receiver's dedup window; it
// also derives the synthetic identity the client reports to collectors
// (the client itself never occupies a ring position).
func NewClient(cfg Config, tr Transport, seedAddr string, seed uint64) *Client {
	cfg = cfg.WithDefaults()
	pool := newPeerPool(tr, cfg, nil, func() ids.ID { return ids.Zero })
	return newClient(pool, wire.NodeRef{Addr: seedAddr}, seed)
}

// newClient returns a client that routes through seedRef and sends
// every RPC through pool, under the pool's configuration and faults.
func newClient(pool *peerPool, seedRef wire.NodeRef, seed uint64) *Client {
	return &Client{
		cfg:  pool.cfg,
		pool: pool,
		seed: seedRef,
		id:   keys.HashUint64(seed ^ 0xc11e47), // "client" salt: a separate stream from the hosts' ID draws
		salt: xrand.New(seed).Uint64(),
	}
}

// ID returns the client's synthetic identity — the key its collector
// reports are aggregated under.
func (c *Client) ID() ids.ID { return c.id }

// Close tears down the client's pooled connections.
func (c *Client) Close() { c.pool.close() }

// Stats snapshots the client's RPC counters.
func (c *Client) Stats() RPCStats { return c.pool.stats() }

// RouteStats returns how keyed operations were routed: hits completed
// in one round trip to a cached owner; lookups counts the iterative
// lookups run instead (cold keys, refusals and failed owners).
func (c *Client) RouteStats() (hits, lookups uint64) {
	return c.hits.Load(), c.lookups.Load()
}

// token returns a fresh nonzero idempotency token.
func (c *Client) token() uint64 {
	tok := c.salt ^ (c.seq.Add(1) << 20)
	if tok == 0 {
		tok = 1
	}
	return tok
}

// Ping round-trips a TPing through the seed node.
func (c *Client) Ping() error {
	return c.pool.call(c.seed, &wire.Msg{Type: wire.TPing}, nil)
}

// Lookup resolves the owner of key with the iterative lookup (see
// lookupFrom), starting at the seed node.
func (c *Client) Lookup(key ids.ID) (wire.NodeRef, int, error) {
	return lookupFrom(c.pool, nil, c.seed, key, nil, nil)
}

// rerouteAttempts bounds how many times a keyed operation re-resolves a
// key's owner after a failure (a node mid-leave answers CodeShutdown, a
// node whose arc just shrank answers CodeNotOwner; the ring needs a beat
// to route around either).
const rerouteAttempts = 5

// routed sends m, a request keyed by key, to key's owner. The first
// try goes to the cached successor of key; a cache miss, a refusal or a
// failed owner falls into the reroute ladder — lookup, send (walking a
// join window back to the owner, see peerPool.callOwner), and a
// stabilization beat between attempts. The owner that accepts is
// remembered. Every keyed request is safe to re-send: storing is
// idempotent, reads have no effect, and a task carries one idempotency
// token across all attempts. The answer is read into reply (nil: the
// outcome only).
func (c *Client) routed(key ids.ID, m, reply *wire.Msg) error {
	if owner, ok := c.routes.successor(key); ok {
		err := c.pool.call(owner, m, reply)
		if err == nil {
			c.hits.Add(1)
			return nil
		}
		c.failed(owner, err)
	}
	var err error
	for attempt := 0; attempt < rerouteAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Ticks(StabilizeEveryTicks))
		}
		c.lookups.Add(1)
		var owner wire.NodeRef
		if owner, _, err = c.Lookup(key); err != nil {
			continue
		}
		if owner, err = c.pool.callOwner(owner, m, reply); err == nil {
			c.routes.remember(owner)
			return nil
		}
		c.failed(owner, err)
	}
	return err
}

// failed records a failed send to owner. A refusal keeps the cache
// entry — the node is alive, it just does not own this key — while any
// other failure forgets it.
func (c *Client) failed(owner wire.NodeRef, err error) {
	if errors.Is(err, ErrNotOwner) {
		c.refused.Add(1)
		return
	}
	c.routes.forget(owner)
}

// Put stores value under key at its owner, re-sending after any failure
// (storing is idempotent). A nil error means the write is durable:
// fsynced at the owner and acknowledged by its replica quorum.
func (c *Client) Put(key ids.ID, value []byte) error {
	_, err := c.PutVer(key, value)
	return err
}

// PutVer is Put returning the version the write was acknowledged at —
// the handle a verifier needs to later prove the write survived (a read
// at version >= this one with these bytes, or newer).
func (c *Client) PutVer(key ids.ID, value []byte) (uint64, error) {
	var reply wire.Msg
	if err := c.routed(key, &wire.Msg{Type: wire.TPut, Key: key, Value: value}, &reply); err != nil {
		return 0, err
	}
	return reply.A, nil
}

// Get fetches the value stored under key from its owner.
func (c *Client) Get(key ids.ID) ([]byte, error) {
	v, _, err := c.GetVer(key)
	return v, err
}

// GetVer is Get returning the owner's stored version alongside the
// value.
func (c *Client) GetVer(key ids.ID) ([]byte, uint64, error) {
	var reply wire.Msg
	return getResult(&reply, c.routed(key, &wire.Msg{Type: wire.TGet, Key: key}, &reply))
}

// getResult unpacks a TGetOK reply: a found value and its version, or
// ErrNotFound when the owner does not hold the key. The value is the
// reply's own, decoded for this call, so it is the caller's to keep.
func getResult(reply *wire.Msg, err error) ([]byte, uint64, error) {
	if err != nil {
		return nil, 0, err
	}
	if !reply.Flag {
		return nil, 0, ErrNotFound
	}
	return reply.Value, reply.A, nil
}

// GetFrom fetches key directly from owner, skipping both the lookup and
// the owner cache. A node that does not own key refuses with
// ErrNotOwner.
func (c *Client) GetFrom(owner wire.NodeRef, key ids.ID) ([]byte, uint64, error) {
	var reply wire.Msg
	return getResult(&reply, c.pool.call(owner, &wire.Msg{Type: wire.TGet, Key: key}, &reply))
}

// Owner resolves key's owner with an uncached lookup.
func (c *Client) Owner(key ids.ID) (wire.NodeRef, error) {
	owner, _, err := c.Lookup(key)
	return owner, err
}

// ReportStream pushes the client's cumulative streaming counters to
// the collector at addr: chunks delivered, chunk deadline misses,
// rebuffer events, and value bytes delivered. Reports are keyed by the
// client's synthetic identity, so repeated pushes overwrite (never
// double count) and several clients aggregate; a client is no host, so
// its report leaves every other counter at zero.
func (c *Client) ReportStream(addr string, chunks, misses, rebuffers, bytes uint64) error {
	s := wire.Stats{StreamChunks: chunks, StreamDeadlineMiss: misses, StreamRebuffers: rebuffers, StreamBytes: bytes}
	return c.pool.call(wire.NodeRef{Addr: addr}, &wire.Msg{
		Type:  wire.TReport,
		From:  wire.NodeRef{ID: c.id},
		Value: wire.AppendStats(nil, &s),
	}, nil)
}

// SubmitTask routes units of work under key to its owner, reusing one
// idempotency token across re-routes so the units land exactly once
// even when an owner dies (or refuses, mid-leave) between attempts.
func (c *Client) SubmitTask(key ids.ID, units uint64) error {
	return c.routed(key, &wire.Msg{Type: wire.TTask, Key: key, A: units, B: c.token()}, nil)
}
