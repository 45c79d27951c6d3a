package chord

import (
	"chordbalance/internal/ids"
)

// Node is one Chord participant.
type Node struct {
	nw    *Network
	id    ids.ID
	alive bool

	// pred is the predecessor pointer maintained by notify; hasPred is
	// false until the first notify arrives.
	pred    ids.ID
	hasPred bool

	// succList is the r-entry successor list, nearest first. Entry 0 is
	// the working successor.
	succList []ids.ID

	// fingers[i] caches successor(id + 2^i); entries start unset (Zero
	// means "fall back to the successor").
	fingers    [ids.Bits]ids.ID
	nextFinger int

	// data holds every key/value this node stores, primary or replica;
	// responsibility is implied by ring position.
	data map[ids.ID]string
}

func newNode(nw *Network, id ids.ID) *Node {
	return &Node{nw: nw, id: id, alive: true, data: make(map[ids.ID]string)}
}

// ID returns the node's ring identifier.
func (n *Node) ID() ids.ID { return n.id }

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Successor returns the node's working successor ID.
func (n *Node) Successor() ids.ID {
	if len(n.succList) == 0 {
		return n.id
	}
	return n.succList[0]
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []ids.ID {
	return append([]ids.ID(nil), n.succList...)
}

// Predecessor returns the predecessor pointer and whether it is set.
func (n *Node) Predecessor() (ids.ID, bool) { return n.pred, n.hasPred }

// KeyCount returns how many keys (primary + replica) the node stores.
func (n *Node) KeyCount() int { return len(n.data) }

// remote models an RPC to another node: the message goes through the
// fault-checking transport (drop/retry/backoff, partitions), and a dead
// callee fails the way a timeout would.
func (n *Node) remote(to ids.ID, kind string) (*Node, error) {
	if err := n.nw.send(kind, n.id, to); err != nil {
		return nil, err
	}
	t := n.nw.nodes[to]
	if t == nil || !t.alive {
		return nil, ErrDead
	}
	return t, nil
}

// firstLiveSuccessor walks the successor list past dead entries, pruning
// them, and returns the first live successor node (nil if none).
func (n *Node) firstLiveSuccessor() *Node {
	for len(n.succList) > 0 {
		t := n.nw.nodes[n.succList[0]]
		if t != nil && t.alive {
			return t
		}
		// Dead: drop and try the next backup (this is exactly what the
		// successor list exists for).
		n.succList = n.succList[1:]
	}
	return nil
}

// closestPreceding returns the live finger or successor-list entry that
// most closely precedes key, or n itself if none does.
func (n *Node) closestPreceding(key ids.ID) *Node {
	// Scan fingers from the farthest down, as in the Chord paper, but
	// skip entries that are unset or dead.
	for i := ids.Bits - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f == ids.Zero || f == n.id {
			continue
		}
		if !ids.Between(f, n.id, key) {
			continue
		}
		t := n.nw.nodes[f]
		if t != nil && t.alive {
			return t
		}
		n.fingers[i] = ids.Zero // prune the dead finger
	}
	// Fall back on the successor list.
	var best *Node
	for _, s := range n.succList {
		if !ids.Between(s, n.id, key) {
			continue
		}
		t := n.nw.nodes[s]
		if t != nil && t.alive {
			best = t // entries are nearest-first; the last match is closest
		}
	}
	if best != nil {
		return best
	}
	return n
}

// Lookup finds the live node responsible for key using iterative routing.
// It returns the owner and the number of routing hops taken. Every hop is
// one RPC through the fault-checking transport: under message loss a hop
// is retried with exponential backoff, and a lookup whose next hop is
// unreachable (timed out or partitioned away) fails the whole query —
// exactly the availability cost the repair metrics measure.
func (n *Node) Lookup(key ids.ID) (*Node, int, error) {
	return n.lookup(key, nil)
}

// LookupTraced is Lookup with the route recorded — for debugging overlays
// and for teaching, via cmd/chordnet's trace command.
func (n *Node) LookupTraced(key ids.ID) (LookupTrace, error) {
	tr := LookupTrace{Key: key}
	owner, _, err := n.lookup(key, &tr.Path)
	if err == nil {
		tr.Owner = owner.id
	}
	return tr, err
}

// lookup is the one iterative routing loop behind Lookup and
// LookupTraced. When path is non-nil every node the query visits is
// appended to it, initiator first, so len(*path)-1 equals the hops.
// Every call counts as one lookup attempt in the transport stats.
func (n *Node) lookup(key ids.ID, path *[]ids.ID) (*Node, int, error) {
	owner, hops, err := n.route(key, path)
	n.nw.tstats.Lookups++
	if err != nil {
		n.nw.tstats.LookupFailures++
	}
	return owner, hops, err
}

func (n *Node) route(key ids.ID, path *[]ids.ID) (*Node, int, error) {
	if !n.alive {
		return nil, 0, ErrDead
	}
	cur := n
	hops := 0
	for hops <= n.nw.cfg.MaxHops {
		if path != nil {
			*path = append(*path, cur.id)
		}
		succ := cur.firstLiveSuccessor()
		if succ == nil {
			if cur.alive && len(cur.nw.AliveIDs()) == 1 {
				return cur, hops, nil // alone on the ring
			}
			return nil, hops, ErrIsolated
		}
		if ids.BetweenRightIncl(key, cur.id, succ.id) {
			return succ, hops, nil
		}
		next := cur.closestPreceding(key)
		if next == cur {
			// No finger advances us; step to the successor.
			next = succ
		}
		if err := n.nw.send("lookup", cur.id, next.id); err != nil {
			return nil, hops, err
		}
		hops++
		cur = next
	}
	return nil, hops, ErrNoRoute
}

// stabilize is the classic Chord stabilization step: verify the working
// successor, adopt its predecessor if that node sits between us, notify,
// and refresh the successor list from the (possibly new) successor.
func (n *Node) stabilize() {
	if !n.alive {
		return
	}
	succ := n.firstLiveSuccessor()
	if succ == nil {
		return
	}
	// One RPC to the successor; if it is dropped or partitioned away,
	// skip this round and keep the current (possibly stale) pointers —
	// a suspected-but-not-evicted peer, so a healed partition restores
	// the ring without a merge protocol.
	if err := n.nw.send("stabilize", n.id, succ.id); err != nil {
		return
	}
	if succ.hasPred {
		x := n.nw.nodes[succ.pred]
		if x != nil && x.alive && x.id != n.id && ids.Between(x.id, n.id, succ.id) {
			succ = x
		}
	}
	// Rebuild the successor list: succ first, then its list shifted.
	list := make([]ids.ID, 0, n.nw.cfg.SuccessorListLen)
	list = append(list, succ.id)
	for _, s := range succ.succList {
		if len(list) >= n.nw.cfg.SuccessorListLen {
			break
		}
		if s != n.id && s != succ.id {
			list = append(list, s)
		}
	}
	n.succList = list
	if err := n.nw.send("notify", n.id, succ.id); err == nil {
		succ.notify(n)
	}
}

// notify tells the node that caller might be its predecessor. The caller
// has already paid for (and survived) the message via send.
func (n *Node) notify(caller *Node) {
	cur := n.nw.nodes[n.pred]
	predDead := !n.hasPred || cur == nil || !cur.alive
	if predDead || ids.Between(caller.id, n.pred, n.id) {
		n.pred = caller.id
		n.hasPred = true
	}
}

// fixNextFinger advances the round-robin finger repair by one entry.
func (n *Node) fixNextFinger() {
	n.fixFinger(n.nextFinger)
	n.nextFinger = (n.nextFinger + 1) % ids.Bits
}

func (n *Node) fixFinger(i int) {
	if !n.alive {
		return
	}
	target := n.id.Add(ids.PowerOfTwo(i))
	owner, _, err := n.Lookup(target)
	if err != nil {
		return // leave the stale entry; a later round will retry
	}
	n.fingers[i] = owner.id
}

// Put stores value under key at the responsible node and replicates it to
// the owner's successors.
func (n *Node) Put(key ids.ID, value string) error {
	owner, _, err := n.Lookup(key)
	if err != nil {
		return err
	}
	if err := n.nw.send("put", n.id, owner.id); err != nil {
		return err
	}
	owner.data[key] = value
	// Track the store so the repair instrumentation can audit, after a
	// failure wave, which keys replication saved and which were lost.
	n.nw.registry[key] = value
	owner.replicate(key, value)
	return nil
}

// Get fetches the value for key from the responsible node. Because
// replicas are promoted by ring position, a Get right after a crash
// succeeds as soon as routing has healed.
func (n *Node) Get(key ids.ID) (string, error) {
	owner, _, err := n.Lookup(key)
	if err != nil {
		return "", err
	}
	if err := n.nw.send("get", n.id, owner.id); err != nil {
		return "", err
	}
	if v, ok := owner.data[key]; ok {
		return v, nil
	}
	return "", ErrNotFound
}

// replicate pushes one key to the next Replicas live successors. A push
// lost in transit leaves that replica unplaced until a later
// repairReplicas round retries it.
func (n *Node) replicate(key ids.ID, value string) {
	count := 0
	cur := n
	for count < n.nw.cfg.Replicas {
		succ := cur.firstLiveSuccessor()
		if succ == nil || succ.id == n.id {
			return // wrapped around a small ring
		}
		if err := n.nw.send("replicate", cur.id, succ.id); err == nil {
			succ.data[key] = value
		}
		cur = succ
		count++
	}
}

// repairReplicas re-replicates the keys this node is primarily
// responsible for — the "active, aggressive" backup maintenance the paper
// assumes (§V). Responsibility is (pred, id].
func (n *Node) repairReplicas() {
	if !n.alive || !n.hasPred {
		return
	}
	// Sorted iteration: per-message fault decisions consume seeded
	// randomness and must not depend on map iteration order.
	for _, k := range sortedDataKeys(n.data) {
		if ids.BetweenRightIncl(k, n.pred, n.id) {
			n.replicate(k, n.data[k])
		}
	}
}

// transferTo hands the joining node newN every key in its new range
// (pred(n), newN.id]. The keys stay on n as replicas — exactly what the
// active-backup scheme would produce.
func (n *Node) transferTo(newN *Node) {
	low := n.pred
	if !n.hasPred {
		low = n.id
	}
	for _, k := range sortedDataKeys(n.data) {
		if ids.BetweenRightIncl(k, low, newN.id) {
			if err := n.nw.send("transfer", n.id, newN.id); err != nil {
				continue // lost transfer: the key stays only on n for now
			}
			newN.data[k] = n.data[k]
		}
	}
}
