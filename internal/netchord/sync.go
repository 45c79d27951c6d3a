package netchord

import (
	"chordbalance/internal/ids"
	"chordbalance/internal/store"
	"chordbalance/internal/wire"
)

// Anti-entropy tuning. The descent is a Merkle-style binary search over
// ring arcs: equal digests prune a whole subtree in one RPC, so a
// single divergent key costs O(log keys) round trips, and a healthy
// replica costs exactly one.
const (
	// syncLeafKeys is the arc size at or below which the descent stops
	// splitting and reconciles key-by-key. MaxMetas bounds one TSyncKeys
	// reply, so a leaf always fits a frame with room to spare.
	syncLeafKeys = 96
	// maxSyncDepth bounds the descent; with 160-bit arcs halving each
	// level this is never hit before the arc becomes unsplittable.
	maxSyncDepth = 32
	// maxSyncRPCs is the per-replica RPC budget of one anti-entropy
	// pass. A pass that runs out resumes where digests still differ on
	// the next cadence tick; convergence is amortized, not abandoned.
	maxSyncRPCs = 64
	// maxChunkBytes is the value-byte budget of one bulk record frame
	// (TReplicate, TSyncFetchOK, and each TTransfer chunk of a leave or
	// a join hand-off). Frames also
	// carry keys, versions, and headers, so this stays well under
	// wire.MaxPayload even at MaxRecs records.
	maxChunkBytes = 256 << 10
)

// storeRecs converts wire records to store records, appending them to
// dst. Wire records have no tombstone bit: a nil value is live data of
// length zero, and deletions travel as higher-version empty writes.
// The values are shared, not copied.
func storeRecs(dst []store.Rec, in []wire.Rec) []store.Rec {
	for _, r := range in {
		dst = append(dst, store.Rec{Key: r.Key, Ver: r.Ver, Value: r.Value})
	}
	return dst
}

// wireRecs converts store records to wire records, dropping tombstones
// (the wire protocol ships live state; a tombstone's absence at the
// receiver is resolved by version-winning merges, not by shipping it).
func wireRecs(in []store.Rec) []wire.Rec {
	out := make([]wire.Rec, 0, len(in))
	for _, r := range in {
		if r.Tombstone {
			continue
		}
		out = append(out, wire.Rec{Key: r.Key, Ver: r.Ver, Value: r.Value})
	}
	return out
}

// wireMetas converts store metas to wire metas.
func wireMetas(in []store.Meta) []wire.Meta {
	out := make([]wire.Meta, len(in))
	for i, m := range in {
		out[i] = wire.Meta{Key: m.Key, Ver: m.Ver, Sum: m.Sum}
	}
	return out
}

// splitRecChunk cuts one frame-sized prefix off recs: at most
// wire.MaxRecs records and (beyond the first record) at most
// maxChunkBytes of value payload. It returns the chunk and the rest.
func splitRecChunk(recs []wire.Rec) (chunk, rest []wire.Rec) {
	n, bytes := 0, 0
	for n < len(recs) && n < wire.MaxRecs {
		bytes += len(recs[n].Value)
		if n > 0 && bytes > maxChunkBytes {
			break
		}
		n++
	}
	return recs[:n], recs[n:]
}

// recBytes is the value-payload size of a record batch.
func recBytes(recs []wire.Rec) int {
	n := 0
	for _, r := range recs {
		n += len(r.Value)
	}
	return n
}

// antiEntropyOnce runs one Merkle anti-entropy pass: for the primary
// arc (pred, self], compare digests with the first Replicas-1 distinct
// successors and reconcile every difference found within the RPC
// budget. This is the durability repair loop — after a partition heals
// or a replica restarts from its log, these passes converge the
// replica set without full-state transfer.
func (n *Node) antiEntropyOnce() {
	n.mu.Lock()
	if n.leaving || !n.hasPred {
		n.mu.Unlock()
		return
	}
	lo, hi := n.pred.ID, n.ref.ID
	replicas := dedupeRefs(n.maint.refs, n.succ, n.ref.ID, n.cfg.Replicas-1)
	n.maint.refs = replicas
	n.mu.Unlock()
	if len(replicas) == 0 {
		return
	}
	for _, peer := range replicas {
		n.antiRounds.Add(1)
		if n.host != nil {
			n.host.stAntiRounds.Add(1)
		}
		budget := maxSyncRPCs
		n.syncRange(peer, lo, hi, 0, &budget)
	}
}

// syncRange reconciles the arc (lo, hi] with peer by recursive digest
// descent. Equal digests end the branch; unequal ones split at the arc
// midpoint until the arc is leaf-sized, unsplittable, or the budget is
// spent.
func (n *Node) syncRange(peer wire.NodeRef, lo, hi ids.ID, depth int, budget *int) {
	if *budget <= 0 {
		return
	}
	*budget--
	// The local digest is taken before the peer's, in the order a write
	// reaches the two (owner first, then replicas), so a write still in
	// flight to the peer is not read as divergence. Taken after the
	// reply instead, it cost ~30% more sync_digest RPCs and twice the
	// repair bytes under a steady write stream. An unchanged arc is a
	// memo hit either way.
	localSum, localCount := n.st.Digest(lo, hi)
	sc := &n.maint
	req := sc.request(wire.TSyncDigest)
	req.Key, req.Key2 = lo, hi
	reply := &sc.reply
	err := n.pool.call(peer, req, reply)
	if err != nil || reply.Type != wire.TSyncDigestOK || len(reply.Value) != wire.SumLen {
		n.replicaErrs.Add(1)
		return
	}
	var peerSum [wire.SumLen]byte
	copy(peerSum[:], reply.Value)
	if peerSum == localSum {
		return // subtree identical, prune
	}
	peerCount := int(reply.A)
	if localCount+peerCount <= syncLeafKeys || depth >= maxSyncDepth {
		n.reconcileLeaf(peer, lo, hi, budget)
		return
	}
	mid := ids.Midpoint(lo, hi)
	if mid == lo {
		// Midpoint(a, a) is a (zero distance): the full ring splits at
		// the antipode instead.
		mid = lo.Add(ids.PowerOfTwo(ids.Bits - 1))
	}
	if mid == lo || mid == hi {
		// Unsplittable two-point arc: reconcile directly.
		n.reconcileLeaf(peer, lo, hi, budget)
		return
	}
	n.syncRange(peer, lo, mid, depth+1, budget)
	n.syncRange(peer, mid, hi, depth+1, budget)
}

// reconcileLeaf diffs the arc (lo, hi] key-by-key against peer and
// repairs both directions: records the peer is missing (or holds at a
// losing version) are pushed via TReplicate; records the peer wins are
// pulled via TSyncFetch and merged through the version-winning store.
func (n *Node) reconcileLeaf(peer wire.NodeRef, lo, hi ids.ID, budget *int) {
	if *budget <= 0 {
		return
	}
	*budget--
	sc := &n.maint
	req := sc.request(wire.TSyncKeys)
	req.Key, req.Key2 = lo, hi
	reply := &sc.reply
	err := n.pool.call(peer, req, reply)
	if err != nil || reply.Type != wire.TSyncKeysOK {
		n.replicaErrs.Add(1)
		return
	}
	local, _ := n.st.Metas(lo, hi, wire.MaxMetas)
	peerByKey := make(map[ids.ID]wire.Meta, len(reply.Metas))
	for _, m := range reply.Metas {
		peerByKey[m.Key] = m
	}
	localByKey := make(map[ids.ID]store.Meta, len(local))

	// Push: local records the peer lacks or loses on.
	var push []wire.Rec
	for _, m := range local {
		localByKey[m.Key] = m
		pm, ok := peerByKey[m.Key]
		if ok && !m.Wins(store.Meta{Key: pm.Key, Ver: pm.Ver, Sum: pm.Sum}) {
			continue
		}
		v, ver, found, err := n.st.Get(m.Key)
		if err != nil || !found {
			continue // deleted or unreadable since the Metas snapshot
		}
		push = append(push, wire.Rec{Key: m.Key, Ver: ver, Value: v})
	}
	for len(push) > 0 && *budget > 0 {
		var chunk []wire.Rec
		chunk, push = splitRecChunk(push)
		*budget--
		if err := n.pool.call(peer, &wire.Msg{Type: wire.TReplicate, Recs: chunk}, nil); err != nil {
			n.replicaErrs.Add(1)
			break
		}
		n.noteRepair(len(chunk), 0, recBytes(chunk))
	}

	// Pull: peer records we lack or lose on. reply.Metas is intact: the
	// pushes above read their acks into no reply of ours.
	var want []wire.Meta
	for _, pm := range reply.Metas {
		lm, ok := localByKey[pm.Key]
		if ok && !(store.Meta{Key: pm.Key, Ver: pm.Ver, Sum: pm.Sum}).Wins(lm) {
			continue
		}
		want = append(want, pm)
	}
	var fetched wire.Msg
	for len(want) > 0 && *budget > 0 {
		batch := want
		if len(batch) > wire.MaxMetas {
			batch = batch[:wire.MaxMetas]
		}
		want = want[len(batch):]
		*budget--
		err := n.pool.call(peer, &wire.Msg{Type: wire.TSyncFetch, Metas: batch}, &fetched)
		if err != nil || fetched.Type != wire.TSyncFetchOK {
			n.replicaErrs.Add(1)
			break
		}
		if len(fetched.Recs) == 0 {
			break
		}
		if _, err := n.st.ApplyAll(storeRecs(nil, fetched.Recs)); err != nil {
			n.replicaErrs.Add(1)
			break
		}
		n.noteRepair(0, len(fetched.Recs), recBytes(fetched.Recs))
	}
}

// noteRepair records anti-entropy repair traffic on the node and, when
// the node belongs to a host, on the host's churn-surviving cumulative
// counters the collector reads.
func (n *Node) noteRepair(pushed, pulled, bytes int) {
	n.antiPushed.Add(int64(pushed))
	n.antiPulled.Add(int64(pulled))
	n.antiBytes.Add(int64(bytes))
	if n.host != nil {
		n.host.stAntiRepairs.Add(int64(pushed + pulled))
		n.host.stAntiBytes.Add(int64(bytes))
	}
}
