package strategy

import (
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// --- mock world ---

// fakeHost is one machine. The hosts a world iterates carry w and
// primary and serve as Views; hosts that only own neighbours need
// neither.
type fakeHost struct {
	w        *fakeWorld
	primary  *fakeVNode
	index    int
	workload int
	sybils   int
	cap      int
	strength int
}

type fakeVNode struct {
	id       ids.ID
	pred     ids.ID
	workload int
	host     *fakeHost
}

type creation struct {
	host int
	id   ids.ID
}

type fakeWorld struct {
	params    Params
	rng       *xrand.Rand
	hosts     []*fakeHost
	primaries []*fakeVNode
	succs     map[int][]*fakeVNode // keyed by host index of the asking vnode
	preds     map[int][]*fakeVNode
	created   []creation
	dropped   []int
	messages  map[string]int
	// helped marks hosts that accepted an invitation this pass.
	helped map[int]bool
	// acquireOnCreate is what CreateSybil reports as acquired work.
	acquireOnCreate int
	refuseCreate    bool
	// splitPoints maps a vnode ID to the split point SplitPoint reports.
	splitPoints map[ids.ID]ids.ID
}

func newFakeWorld() *fakeWorld {
	return &fakeWorld{
		params:   Params{NumSuccessors: 5, DecisionEvery: 5}.WithDefaults(),
		rng:      xrand.New(1),
		succs:    map[int][]*fakeVNode{},
		preds:    map[int][]*fakeVNode{},
		messages: map[string]int{},
	}
}

func (w *fakeWorld) Params() Params                    { return w.params }
func (w *fakeWorld) RNG() *xrand.Rand                  { return w.rng }
func (w *fakeWorld) ChargeMessages(kind string, n int) { w.messages[kind] += n }
func (w *fakeWorld) EachHost(fn func(View)) {
	w.helped = map[int]bool{}
	for _, h := range w.hosts {
		fn(h)
	}
}

// node finds the vnode a Peer names among the primaries and every
// neighbour window.
func (w *fakeWorld) node(id ids.ID) *fakeVNode {
	for _, v := range w.primaries {
		if v.id == id {
			return v
		}
	}
	for _, m := range []map[int][]*fakeVNode{w.succs, w.preds} {
		for _, vs := range m {
			for _, v := range vs {
				if v.id == id {
					return v
				}
			}
		}
	}
	return nil
}

// create records a Sybil for h at id, refusing like a full host.
func (w *fakeWorld) create(h *fakeHost, id ids.ID) (int, bool) {
	if w.refuseCreate || !h.CanCreateSybil() {
		return 0, false
	}
	w.created = append(w.created, creation{h.index, id})
	h.sybils++
	return w.acquireOnCreate, true
}

// willHelp is the helper-side invitation test.
func (w *fakeWorld) willHelp(c *fakeHost) bool {
	return !w.helped[c.index] && c.workload <= w.params.SybilThreshold && c.CanCreateSybil()
}

func (h *fakeHost) Index() int           { return h.index }
func (h *fakeHost) Workload() int        { return h.workload }
func (h *fakeHost) SybilCount() int      { return h.sybils }
func (h *fakeHost) CanCreateSybil() bool { return h.sybils < h.cap }
func (h *fakeHost) Strength() int        { return h.strength }
func (h *fakeHost) Primary() Peer        { return h.peer(h.primary) }
func (h *fakeHost) VNodes() []Peer       { return []Peer{h.Primary()} }
func (h *fakeHost) RandomID() ids.ID     { return ids.Random(h.w.rng) }

func (h *fakeHost) peer(v *fakeVNode) Peer {
	return Peer{ID: v.id, PredID: v.pred, Mine: v.host == h}
}

func (h *fakeHost) peers(vs []*fakeVNode) []Peer {
	out := make([]Peer, len(vs))
	for i, v := range vs {
		out[i] = h.peer(v)
	}
	return out
}

func (h *fakeHost) Successors(k int) []Peer   { return h.peers(h.w.succs[h.index]) }
func (h *fakeHost) Predecessors(k int) []Peer { return h.peers(h.w.preds[h.index]) }
func (h *fakeHost) Load(p Peer) int           { return h.w.node(p.ID).workload }
func (h *fakeHost) Offer(p Peer) (int, int, bool) {
	c := h.w.node(p.ID).host
	return c.workload, c.strength, h.w.willHelp(c)
}
func (h *fakeHost) SplitPoint(p Peer) (ids.ID, bool) {
	id, ok := h.w.splitPoints[p.ID]
	return id, ok
}
func (h *fakeHost) CreateSybil(id ids.ID) (int, bool) { return h.w.create(h, id) }
func (h *fakeHost) Invite(p Peer, id ids.ID) bool {
	c := h.w.node(p.ID).host
	if !h.w.willHelp(c) {
		return false
	}
	if _, ok := h.w.create(c, id); !ok {
		return false
	}
	h.w.helped[c.index] = true
	return true
}
func (h *fakeHost) DropSybils() {
	h.w.dropped = append(h.w.dropped, h.index)
	h.sybils = 0
}

func (w *fakeWorld) addHost(index, workload, cap int) (*fakeHost, *fakeVNode) {
	h := &fakeHost{w: w, index: index, workload: workload, cap: cap, strength: 1}
	v := &fakeVNode{
		id:       ids.FromUint64(uint64(100 * (index + 1))),
		pred:     ids.FromUint64(uint64(100 * index)),
		workload: workload,
		host:     h,
	}
	h.primary = v
	w.hosts = append(w.hosts, h)
	w.primaries = append(w.primaries, v)
	return h, v
}

// --- tests ---

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.NumSuccessors != 5 || p.DecisionEvery != 5 {
		t.Errorf("defaults = %+v", p)
	}
	p = Params{NumSuccessors: 10, DecisionEvery: 3}.WithDefaults()
	if p.NumSuccessors != 10 || p.DecisionEvery != 3 {
		t.Error("explicit values must be preserved")
	}
}

func TestNoneDoesNothing(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	NewNone().Decide(w)
	if len(w.created) != 0 || len(w.dropped) != 0 {
		t.Error("None must not act")
	}
	if NewNone().Name() != "none" {
		t.Error("name")
	}
}

func TestRandomInjectionCreatesWhenIdle(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)  // idle: creates
	w.addHost(1, 10, 5) // busy: does not
	NewRandomInjection().Decide(w)
	if len(w.created) != 1 || w.created[0].host != 0 {
		t.Fatalf("created = %v", w.created)
	}
}

func TestRandomInjectionRespectsThreshold(t *testing.T) {
	w := newFakeWorld()
	w.params.SybilThreshold = 10
	w.addHost(0, 10, 5) // at threshold: creates
	w.addHost(1, 11, 5) // above: does not
	NewRandomInjection().Decide(w)
	if len(w.created) != 1 || w.created[0].host != 0 {
		t.Fatalf("created = %v", w.created)
	}
}

func TestRandomInjectionOneSybilPerPass(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	NewRandomInjection().Decide(w)
	if len(w.created) != 1 {
		t.Fatalf("a single pass must create at most one Sybil, got %d", len(w.created))
	}
}

func TestRandomInjectionDropsWorklessSybils(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 0, 5)
	h.sybils = 3
	NewRandomInjection().Decide(w)
	if len(w.dropped) != 1 || w.dropped[0] != 0 {
		t.Fatalf("dropped = %v", w.dropped)
	}
	// After dropping, the host is idle and under cap: it re-rolls.
	if len(w.created) != 1 {
		t.Errorf("expected a fresh Sybil after dropping, got %v", w.created)
	}
}

func TestRandomInjectionKeepsSybilsWithWork(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 4, 5)
	h.sybils = 2
	NewRandomInjection().Decide(w)
	if len(w.dropped) != 0 {
		t.Error("sybils with work must not be dropped")
	}
}

func TestRandomInjectionHonorsCap(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 1, 2) // small workload but > 0 so no drop
	w.params.SybilThreshold = 5
	h.sybils = 2 // at cap
	NewRandomInjection().Decide(w)
	if len(w.created) != 0 {
		t.Error("host at Sybil cap must not create")
	}
}

func TestNeighborInjectionPicksLargestArc(t *testing.T) {
	w := newFakeWorld()
	h, v := w.addHost(0, 0, 5)
	_ = h
	small := &fakeVNode{
		id:   ids.FromUint64(2000),
		pred: ids.FromUint64(1990), // arc width 10
		host: &fakeHost{index: 1},
	}
	big := &fakeVNode{
		id:   ids.FromUint64(5000),
		pred: ids.FromUint64(2000), // arc width 3000
		host: &fakeHost{index: 2},
	}
	w.succs[0] = []*fakeVNode{small, big}
	NewNeighborInjection().Decide(w)
	if len(w.created) != 1 {
		t.Fatalf("created = %v", w.created)
	}
	want := ids.Midpoint(big.pred, big.id)
	if w.created[0].id != want {
		t.Errorf("sybil at %v, want midpoint of big arc %v", w.created[0].id, want)
	}
	_ = v
}

func TestNeighborInjectionSkipsOwnVNodes(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 0, 5)
	ownSybil := &fakeVNode{
		id:   ids.FromUint64(9000),
		pred: ids.FromUint64(1000), // biggest arc, but it's ours
		host: h,
	}
	other := &fakeVNode{
		id:   ids.FromUint64(9500),
		pred: ids.FromUint64(9000),
		host: &fakeHost{index: 1},
	}
	w.succs[0] = []*fakeVNode{ownSybil, other}
	NewNeighborInjection().Decide(w)
	if len(w.created) != 1 || w.created[0].id != ids.Midpoint(other.pred, other.id) {
		t.Errorf("must skip own arcs: %v", w.created)
	}
}

func TestNeighborInjectionAvoidRepeats(t *testing.T) {
	w := newFakeWorld()
	w.params.AvoidRepeats = true
	w.addHost(0, 0, 5)
	big := &fakeVNode{
		id:   ids.FromUint64(5000),
		pred: ids.FromUint64(1000),
		host: &fakeHost{index: 1},
	}
	small := &fakeVNode{
		id:   ids.FromUint64(5100),
		pred: ids.FromUint64(5000),
		host: &fakeHost{index: 2},
	}
	w.succs[0] = []*fakeVNode{big, small}
	w.acquireOnCreate = 0 // the Sybil finds nothing
	s := NewNeighborInjection()
	s.Decide(w)
	if len(w.created) != 1 || w.created[0].id != ids.Midpoint(big.pred, big.id) {
		t.Fatalf("first pass must try the big arc: %v", w.created)
	}
	// Second pass: big arc is blacklisted, falls to the small one.
	s.Decide(w)
	if len(w.created) != 2 || w.created[1].id != ids.Midpoint(small.pred, small.id) {
		t.Fatalf("second pass must avoid the failed arc: %v", w.created)
	}
}

func TestNeighborInjectionNoCandidates(t *testing.T) {
	w := newFakeWorld()
	h, _ := w.addHost(0, 0, 5)
	own := &fakeVNode{id: ids.FromUint64(1), pred: ids.FromUint64(0), host: h}
	w.succs[0] = []*fakeVNode{own}
	NewNeighborInjection().Decide(w)
	if len(w.created) != 0 {
		t.Error("no foreign successors: nothing to do")
	}
}

func TestSmartNeighborPicksMostLoaded(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	light := &fakeVNode{
		id: ids.FromUint64(3000), pred: ids.FromUint64(1000), // huge arc
		workload: 2, host: &fakeHost{index: 1},
	}
	heavy := &fakeVNode{
		id: ids.FromUint64(3010), pred: ids.FromUint64(3000), // tiny arc
		workload: 50, host: &fakeHost{index: 2},
	}
	w.succs[0] = []*fakeVNode{light, heavy}
	NewSmartNeighbor().Decide(w)
	if len(w.created) != 1 || w.created[0].id != ids.Midpoint(heavy.pred, heavy.id) {
		t.Errorf("smart must split the most-loaded arc: %v", w.created)
	}
	if w.messages["workload-query"] != 2 {
		t.Errorf("queries = %d, want one per successor", w.messages["workload-query"])
	}
}

func TestSmartNeighborSkipsEmptyNeighborhood(t *testing.T) {
	w := newFakeWorld()
	w.addHost(0, 0, 5)
	idle := &fakeVNode{
		id: ids.FromUint64(3000), pred: ids.FromUint64(1000),
		workload: 0, host: &fakeHost{index: 1},
	}
	w.succs[0] = []*fakeVNode{idle}
	NewSmartNeighbor().Decide(w)
	if len(w.created) != 0 {
		t.Error("no work in neighborhood: must not create a Sybil")
	}
}

func TestInvitationHelpsOverloaded(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	_, overloaded := w.addHost(0, 500, 5)
	overloaded.workload = 500
	helperBusy := &fakeHost{index: 1, workload: 50, cap: 5}
	helperIdle := &fakeHost{index: 2, workload: 0, cap: 5}
	w.preds[0] = []*fakeVNode{
		&fakeVNode{id: ids.FromUint64(10), host: helperBusy},
		&fakeVNode{id: ids.FromUint64(20), host: helperIdle},
	}
	NewInvitation().Decide(w)
	if len(w.created) != 1 || w.created[0].host != 2 {
		t.Fatalf("the idle predecessor must help: %v", w.created)
	}
	want := ids.Midpoint(overloaded.pred, overloaded.id)
	if w.created[0].id != want {
		t.Errorf("sybil at %v, want inviter's arc midpoint %v", w.created[0].id, want)
	}
	if w.messages["invitation"] != 2 {
		t.Errorf("announcement messages = %d", w.messages["invitation"])
	}
}

func TestInvitationRefusedWhenNoIdlePred(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	_, v := w.addHost(0, 500, 5)
	v.workload = 500
	busy := &fakeHost{index: 1, workload: 50, cap: 5}
	w.preds[0] = []*fakeVNode{&fakeVNode{id: ids.FromUint64(10), host: busy}}
	NewInvitation().Decide(w)
	if len(w.created) != 0 {
		t.Error("invitation must be refused when no predecessor qualifies")
	}
}

func TestInvitationRefusedWhenPredAtCap(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	_, v := w.addHost(0, 500, 5)
	v.workload = 500
	capped := &fakeHost{index: 1, workload: 0, cap: 2, sybils: 2}
	w.preds[0] = []*fakeVNode{&fakeVNode{id: ids.FromUint64(10), host: capped}}
	NewInvitation().Decide(w)
	if len(w.created) != 0 {
		t.Error("predecessor with too many Sybils must refuse")
	}
}

func TestInvitationNotTriggeredBelowThreshold(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 100
	_, v := w.addHost(0, 100, 5) // exactly at threshold: not overloaded
	v.workload = 100
	w.preds[0] = []*fakeVNode{&fakeVNode{id: ids.FromUint64(10), host: &fakeHost{index: 1, cap: 5}}}
	NewInvitation().Decide(w)
	if len(w.created) != 0 {
		t.Error("threshold is strict")
	}
}

func TestInvitationHelperUsedOncePerPass(t *testing.T) {
	w := newFakeWorld()
	w.params.InviteThreshold = 10
	_, v0 := w.addHost(0, 100, 5)
	v0.workload = 100
	_, v1 := w.addHost(1, 100, 5)
	v1.workload = 100
	helper := &fakeHost{index: 9, workload: 0, cap: 5}
	w.preds[0] = []*fakeVNode{&fakeVNode{id: ids.FromUint64(10), host: helper}}
	w.preds[1] = []*fakeVNode{&fakeVNode{id: ids.FromUint64(10), host: helper}}
	NewInvitation().Decide(w)
	if len(w.created) != 1 {
		t.Errorf("one helper must help at most once per pass, created %d", len(w.created))
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "churn", "random", "neighbor", "smart-neighbor", "smart", "invitation"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("unknown name must fail")
	}
	// Fresh instances each call: neighbor carries state.
	a, _ := ByName("neighbor")
	b, _ := ByName("neighbor")
	if a == b {
		t.Error("ByName must return fresh instances")
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]Strategy{
		"random":         NewRandomInjection(),
		"neighbor":       NewNeighborInjection(),
		"smart-neighbor": NewSmartNeighbor(),
		"invitation":     NewInvitation(),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}
