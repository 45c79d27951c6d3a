package strategy

import "sort"

// Oracle is an omniscient rebalancer: every decision pass it ranks all
// virtual nodes by residual workload globally and has the idlest hosts
// split the heaviest arcs at their exact key medians. It violates the
// paper's decentralization requirement on purpose — it exists as an
// upper bound, showing how much headroom the local strategies leave on
// the table (compare `dhtsweep -exp extensions`).
type Oracle struct{}

// NewOracle returns the global upper-bound strategy.
func NewOracle() Strategy { return Oracle{} }

// Name implements Strategy.
func (Oracle) Name() string { return "oracle" }

// loaded is one virtual node in the global ranking: the view of the
// host that projects it, and its workload at ranking time, so the sort
// compares plain ints.
type loaded struct {
	h View
	v Peer
	w int
}

// Decide implements Strategy. It keeps every host's View past its
// EachHost callback — the global knowledge no local strategy has.
func (Oracle) Decide(w World) {
	p := w.Params()
	var idle []View
	var all []loaded
	w.EachHost(func(h View) {
		if h.Workload() == 0 && h.SybilCount() > 0 {
			h.DropSybils()
		}
		if h.Workload() <= p.SybilThreshold && h.CanCreateSybil() {
			idle = append(idle, h)
		}
		for _, v := range h.VNodes() {
			all = append(all, loaded{h: h, v: v})
		}
	})
	if len(idle) == 0 || len(all) == 0 {
		return
	}
	// Workloads are read once, after the EachHost pass (DropSybils above
	// may still move keys mid-scan) and before any splits below. The
	// advance loop stays exact: a CreateSybil split drains only the
	// vnode being split, which the loop skips immediately afterwards —
	// every later cached value is still the live value.
	for i := range all {
		all[i].w = all[i].h.Load(all[i].v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w > all[j].w })

	vi := 0
	for _, h := range idle {
		// Advance past victims not worth splitting or owned by the
		// helper itself.
		for vi < len(all) && (all[vi].w < 2 || all[vi].h.Index() == h.Index()) {
			vi++
		}
		if vi >= len(all) {
			return
		}
		if id, ok := h.SplitPoint(all[vi].v); ok {
			h.CreateSybil(id)
		}
		vi++
	}
}
