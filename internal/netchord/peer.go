package netchord

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
)

// RPCStats counts client-side RPC activity for one pool.
type RPCStats struct {
	// Calls counts RPC attempts issued (first transmissions).
	Calls int64
	// Retries counts re-attempts after a failure or timeout.
	Retries int64
	// Timeouts counts RPCs abandoned after the retry budget.
	Timeouts int64
	// BackoffTicks accumulates tick-denominated backoff spent waiting
	// between retries.
	BackoffTicks int64
	// Reconnects counts fresh dials after a pooled conn was discarded.
	Reconnects int64
	// PartitionRefusals counts calls refused because the destination was
	// across an active partition.
	PartitionRefusals int64
}

// peerPool owns one node's client side: at most one pooled connection
// per peer address, request-id matching on each, reconnect-on-error,
// and bounded retries with deterministic exponential backoff
// (faults.Backoff, denominated in ticks and scaled to wall time).
//
// A pooled connection carries one call at a time (a per-peer mutex
// serializes callers); any error — timeout, short read, decode failure
// — closes the connection so the next call starts on a fresh, framed
// stream rather than desynchronizing mid-frame.
type peerPool struct {
	tr    Transport
	cfg   Config
	nf    *NetFaults
	local func() ids.ID // the caller's current ring identity

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool

	reqID uint64 // atomic

	calls, retries, timeouts, backoff, reconnects, refusals atomic.Int64
}

// peer is one pooled connection (possibly nil until first use): the
// conn, which carries the deadlines, and the framed stream over it.
// Both are set and dropped together.
type peer struct {
	mu   sync.Mutex
	conn net.Conn
	fc   *wire.Conn
}

func newPeerPool(tr Transport, cfg Config, nf *NetFaults, local func() ids.ID) *peerPool {
	return &peerPool{tr: tr, cfg: cfg, nf: nf, local: local, peers: make(map[string]*peer)}
}

// stats snapshots the pool's counters.
func (p *peerPool) stats() RPCStats {
	return RPCStats{
		Calls:             p.calls.Load(),
		Retries:           p.retries.Load(),
		Timeouts:          p.timeouts.Load(),
		BackoffTicks:      p.backoff.Load(),
		Reconnects:        p.reconnects.Load(),
		PartitionRefusals: p.refusals.Load(),
	}
}

// close tears down every pooled connection; later calls fail.
func (p *peerPool) close() {
	p.mu.Lock()
	p.closed = true
	addrs := make([]string, 0, len(p.peers))
	for a := range p.peers {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	peers := make([]*peer, 0, len(addrs))
	for _, a := range addrs {
		peers = append(peers, p.peers[a])
	}
	p.peers = make(map[string]*peer)
	p.mu.Unlock()
	for _, pr := range peers {
		pr.mu.Lock()
		if pr.conn != nil {
			_ = pr.conn.Close()
			pr.conn, pr.fc = nil, nil
		}
		pr.mu.Unlock()
	}
}

// get returns (creating if needed) the peer record for addr.
func (p *peerPool) get(addr string) (*peer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	pr := p.peers[addr]
	if pr == nil {
		pr = &peer{}
		p.peers[addr] = pr
	}
	return pr, nil
}

// call performs one request/response RPC against ref, retrying up to
// MaxRetries times with tick-denominated exponential backoff. It fills
// m.Req; the reply is matched by request id (stale or duplicated
// replies from earlier attempts on the same stream are discarded) and
// read into reply, which the caller owns (wire.Conn.ReadMsg's rule:
// the caller may reuse it for its next call). A nil reply asks for the
// outcome only.
func (p *peerPool) call(ref wire.NodeRef, m, reply *wire.Msg) error {
	if ref.Addr == "" {
		return fmt.Errorf("netchord: call %v: empty address", m.Type)
	}
	pr, err := p.get(ref.Addr)
	if err != nil {
		return err
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()

	timeout := p.cfg.rpcTimeout()
	p.calls.Add(1)
	var lastErr error
	for attempt := 0; attempt <= p.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			wait := faults.Backoff(backoffBaseTicks, attempt)
			p.backoff.Add(int64(wait))
			//lint:ignore lockheld pr.mu IS the one-call-at-a-time serializer for this peer's pooled conn; backoff must hold it so a second caller cannot interleave frames mid-retry
			time.Sleep(p.cfg.Ticks(wait))
		}
		// A partition refusal is cheaper than a timeout and matches the
		// simulator's transport semantics; the retry loop still runs so
		// a healing partition lets later attempts through.
		if p.nf != nil && !p.nf.SameSide(p.local(), ref.ID) {
			p.nf.refused()
			p.refusals.Add(1)
			lastErr = ErrPartitioned
			continue
		}
		//lint:ignore lockheld pr.mu serializes RPCs on the pooled conn by design: the lock is per-peer, taken only here and in tryOnce/close, and never by anything attempt's I/O waits on
		err := p.attempt(pr, ref, m, reply, timeout)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrRemote) {
			// The peer answered authoritatively (a well-framed TError);
			// retrying the same request cannot change its mind.
			return err
		}
		lastErr = err
	}
	p.timeouts.Add(1)
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return fmt.Errorf("%w (%v to %s: %v)", ErrTimeout, m.Type, ref.Addr, lastErr)
}

// tryOnce performs a single-attempt RPC: no retries, no backoff. It is
// the cheap probe behind graveyard revival checks and density-scan
// evictions, where failure is the expected case and a full retry ladder
// would stall the maintenance loop. It reads the answer into reply, as
// call does.
func (p *peerPool) tryOnce(ref wire.NodeRef, m, reply *wire.Msg) error {
	if ref.Addr == "" {
		return fmt.Errorf("netchord: probe %v: empty address", m.Type)
	}
	if p.nf != nil && !p.nf.SameSide(p.local(), ref.ID) {
		p.nf.refused()
		p.refusals.Add(1)
		return ErrPartitioned
	}
	pr, err := p.get(ref.Addr)
	if err != nil {
		return err
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	p.calls.Add(1)
	//lint:ignore lockheld pr.mu serializes RPCs on the pooled conn by design (see call); a probe holding it only delays other callers to the same peer, never a lock attempt's I/O depends on
	return p.attempt(pr, ref, m, reply, p.cfg.rpcTimeout())
}

// callOwner sends m, a keyed request, to owner, the node a lookup
// resolved for the key. A refusal there means a join window: the
// refuser's predecessor pointer already names a joiner that routing
// (successor pointers, fixed at the next stabilization) has not yet
// learned of. Ownership is decided by predecessor pointers, so the call
// walks back along them, at most SuccessorListLen steps, until a node
// accepts. It reads the answer into reply, as call does, and returns
// the node that answered or failed.
func (p *peerPool) callOwner(owner wire.NodeRef, m, reply *wire.Msg) (wire.NodeRef, error) {
	err := p.call(owner, m, reply)
	var pred wire.Msg
	for step := 0; errors.Is(err, ErrNotOwner) && step < p.cfg.SuccessorListLen; step++ {
		perr := p.call(owner, &wire.Msg{Type: wire.TGetPred}, &pred)
		if perr != nil || !pred.Flag || pred.Node.Addr == "" || pred.Node.ID == owner.ID {
			break
		}
		owner = pred.Node
		err = p.call(owner, m, reply)
	}
	return owner, err
}

// attempt runs one transmission: ensure a connection, write the
// request, read into reply (a local one when nil) until the matching
// reply or the deadline. Any error discards the pooled connection.
func (p *peerPool) attempt(pr *peer, ref wire.NodeRef, m, reply *wire.Msg, timeout time.Duration) error {
	var discard wire.Msg
	if reply == nil {
		reply = &discard
	}
	conn, fc := pr.conn, pr.fc
	if conn == nil {
		raw, err := p.tr.Dial(ref.Addr, timeout)
		if err != nil {
			return err
		}
		conn = p.nf.Wrap(raw, p.local(), ref.ID)
		fc = wire.NewConn(conn)
		pr.conn, pr.fc = conn, fc
		p.reconnects.Add(1)
	}
	drop := func() {
		_ = conn.Close()
		pr.conn, pr.fc = nil, nil
	}
	m.Req = atomic.AddUint64(&p.reqID, 1)
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		drop()
		return err
	}
	if err := fc.WriteMsg(m); err != nil {
		drop()
		return err
	}
	for {
		if err := fc.ReadMsg(reply); err != nil {
			drop()
			return err
		}
		if reply.Req != m.Req {
			continue // stale or duplicated reply from an earlier attempt
		}
		if reply.Type == wire.TError {
			if reply.A == CodeNotOwner {
				return fmt.Errorf("%w: %w: %s", ErrRemote, ErrNotOwner, reply.Text)
			}
			return fmt.Errorf("%w: %s (code %d)", ErrRemote, reply.Text, reply.A)
		}
		return nil
	}
}
