package adversary

import (
	"math"
	"sort"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

func TestIDAtFraction(t *testing.T) {
	if got := IDAtFraction(0); got != ids.Zero {
		t.Errorf("IDAtFraction(0) = %s, want zero", got)
	}
	for _, f := range []float64{0.1, 0.25, 0.5, 0.75, 0.999} {
		got := IDAtFraction(f).Float64()
		if math.Abs(got-f) > 1e-9 {
			t.Errorf("IDAtFraction(%v).Float64() = %v", f, got)
		}
	}
	// Wrapping: 1.2 is the same ring position as 0.2 (up to float
	// subtraction error in the wrap).
	if got := IDAtFraction(1.2).Float64(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("IDAtFraction(1.2) at %v, want ~0.2", got)
	}
}

func TestPuzzleSolveVerify(t *testing.T) {
	rng := xrand.New(7)
	for _, bits := range []int{0, 1, 4, 8, 12} {
		id := ids.Random(rng)
		nonce := SolvePuzzle(id, bits)
		if !VerifyPuzzle(id, nonce, bits) {
			t.Fatalf("bits=%d: solved nonce %d does not verify", bits, nonce)
		}
		if bits > 0 {
			// A solution binds to its ID: another identity cannot reuse it
			// (astronomically unlikely to verify; at 12 bits the chance a
			// fixed nonce solves a random ID is 2^-12 per trial).
			other := ids.Random(rng)
			reused := 0
			for trial := 0; trial < 4; trial++ {
				if VerifyPuzzle(other, nonce, 12) {
					reused++
				}
				other = ids.Random(rng)
			}
			if reused == 4 {
				t.Fatalf("bits=%d: nonce verified for every unrelated ID", bits)
			}
		}
	}
	// Determinism: same inputs, same nonce.
	id := ids.Random(xrand.New(9))
	if SolvePuzzle(id, 10) != SolvePuzzle(id, 10) {
		t.Fatal("SolvePuzzle is not a pure function of its inputs")
	}
	// Difficulty 0 admits everyone.
	if !VerifyPuzzle(id, 12345, 0) {
		t.Fatal("disabled puzzle rejected an identity")
	}
}

func TestPuzzleCost(t *testing.T) {
	if PuzzleCost(0) != 0 || PuzzleCost(-3) != 0 {
		t.Errorf("disabled puzzle must cost 0")
	}
	if PuzzleCost(1) != 2 || PuzzleCost(10) != 1024 {
		t.Errorf("PuzzleCost(1)=%d PuzzleCost(10)=%d, want 2 and 1024", PuzzleCost(1), PuzzleCost(10))
	}
}

func TestAttackConfigZeroAndValidate(t *testing.T) {
	var zero AttackConfig
	if !zero.Zero() {
		t.Error("zero AttackConfig must report Zero")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero AttackConfig must validate: %v", err)
	}
	bad := []AttackConfig{
		{Budget: -1},
		{Budget: 1, MintEvery: -1},
		{Budget: 1, TargetStart: 1.5},
		{Budget: 1, TargetWidth: -0.1},
		{Budget: 1, WorkRate: -2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestDefenseConfigZeroAndValidate(t *testing.T) {
	var zero DefenseConfig
	if !zero.Zero() || zero.DetectionOn() {
		t.Error("zero DefenseConfig must be inert")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero DefenseConfig must validate: %v", err)
	}
	if (DefenseConfig{PuzzleBits: 4}).Zero() || (DefenseConfig{Threshold: 8}).Zero() {
		t.Error("enabled defense reported Zero")
	}
	bad := []DefenseConfig{
		{PuzzleBits: -1},
		{PuzzleBits: MaxPuzzleBits + 1},
		{Window: 1},
		{Threshold: 0.5},
		{ScanEvery: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestAttackerBudgetAndWork(t *testing.T) {
	a, err := NewAttacker(AttackConfig{Budget: 2, TargetStart: 0.25, TargetWidth: 0.125, WorkRate: 3})
	if err != nil {
		t.Fatal(err)
	}
	const cost = 5
	if a.CanMint(cost) {
		t.Fatal("mint allowed before any work accrued")
	}
	a.Accrue() // 3 units: still short of cost 5
	if a.CanMint(cost) {
		t.Fatal("mint allowed below the admission cost")
	}
	a.Accrue() // 6 units
	if !a.CanMint(cost) {
		t.Fatal("mint refused with work and budget available")
	}
	rng := xrand.New(42)
	for i := 0; i < 2; i++ {
		id := a.MintID(rng)
		if !a.InTarget(id) {
			t.Fatalf("minted ID %s outside the target arc", id.Short())
		}
		a.Accrue()
		a.Accrue()
		a.Minted(cost)
	}
	if a.CanMint(0) {
		t.Fatal("mint allowed past the concurrency budget")
	}
	if a.Live() != 2 || a.MintCount() != 2 {
		t.Fatalf("live=%d minted=%d, want 2/2", a.Live(), a.MintCount())
	}
	// The churn exploit: an eviction frees budget for a re-mint.
	a.Evicted()
	if !a.CanMint(0) {
		t.Fatal("re-mint refused after eviction")
	}
	if a.EvictCount() != 1 {
		t.Fatalf("evicted=%d, want 1", a.EvictCount())
	}
}

func TestAttackerNoReMint(t *testing.T) {
	a, err := NewAttacker(AttackConfig{Budget: 1, NoReMint: true})
	if err != nil {
		t.Fatal(err)
	}
	a.Accrue()
	a.Minted(0)
	a.Evicted()
	a.Accrue()
	if a.CanMint(0) {
		t.Fatal("NoReMint must burn budget permanently on eviction")
	}
}

func TestAttackerTargetMembership(t *testing.T) {
	a, err := NewAttacker(AttackConfig{Budget: 1, TargetStart: 0.5, TargetWidth: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := a.Target()
	if got := lo.Float64(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("target lo at %v, want 0.5", got)
	}
	if got := hi.Float64(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("target hi at %v, want 0.75", got)
	}
	cases := []struct {
		f  float64
		in bool
	}{{0.5, true}, {0.6, true}, {0.7499, true}, {0.75, false}, {0.25, false}, {0.9, false}}
	for _, c := range cases {
		if got := a.InTarget(IDAtFraction(c.f)); got != c.in {
			t.Errorf("InTarget(%v) = %v, want %v", c.f, got, c.in)
		}
	}
}

// uniformRing returns n perfectly evenly spaced IDs in ring order — the
// density scan's null hypothesis made literal.
func uniformRing(n int) []ids.ID {
	out := make([]ids.ID, n)
	for i := range out {
		out[i] = IDAtFraction(float64(i) / float64(n))
	}
	return out
}

func at(ring []ids.ID) func(int) ids.ID {
	return func(i int) ids.ID { return ring[i] }
}

func TestDetectorUniformRingClean(t *testing.T) {
	d, err := NewDetector(DefenseConfig{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	ring := uniformRing(64)
	if flagged := d.Flagged(len(ring), at(ring)); len(flagged) != 0 {
		t.Errorf("uniform ring flagged positions %v", flagged)
	}
	// SHA-1-style random placement: gaps vary, but an 8-window's span
	// concentrates enough that ratio 8 stays quiet at this size.
	rng := xrand.New(11)
	rand := make([]ids.ID, 64)
	for i := range rand {
		rand[i] = ids.Random(rng)
	}
	sort.Slice(rand, func(i, j int) bool { return rand[i].Less(rand[j]) })
	d2, err := NewDetector(DefenseConfig{Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	if flagged := d2.Flagged(len(rand), at(rand)); len(flagged) != 0 {
		t.Errorf("random uniform ring flagged at threshold 8: %v", flagged)
	}
}

func TestDetectorFlagsCluster(t *testing.T) {
	// 56 uniform nodes plus 8 hostile IDs crammed into 1/1000 of the
	// ring: a textbook eclipse cluster.
	ring := uniformRing(56)
	for i := 0; i < 8; i++ {
		ring = append(ring, IDAtFraction(0.30001+float64(i)*0.0001))
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].Less(ring[j]) })
	d, err := NewDetector(DefenseConfig{Window: 8, Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	flagged := d.Flagged(len(ring), at(ring))
	if len(flagged) == 0 {
		t.Fatal("dense cluster not flagged")
	}
	// Every hostile position must be covered.
	flagSet := make(map[int]bool, len(flagged))
	for _, p := range flagged {
		flagSet[p] = true
	}
	for i, id := range ring {
		f := id.Float64()
		if f >= 0.3 && f < 0.302 && !flagSet[i] {
			t.Errorf("hostile position %d (%v) not flagged", i, f)
		}
	}
	// Ascending order, as documented.
	if !sort.IntsAreSorted(flagged) {
		t.Errorf("flagged positions not sorted: %v", flagged)
	}
}

func TestDetectorSmallRing(t *testing.T) {
	d, err := NewDetector(DefenseConfig{Window: 8, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	ring := uniformRing(8) // n == window: nothing to compare against
	if flagged := d.Flagged(len(ring), at(ring)); len(flagged) != 0 {
		t.Errorf("ring no larger than the window flagged %v", flagged)
	}
	if flagged := d.Flagged(0, nil); len(flagged) != 0 {
		t.Errorf("empty ring flagged %v", flagged)
	}
}

func TestEclipsedFraction(t *testing.T) {
	ring := uniformRing(16)
	lo, hi := IDAtFraction(0.25), IDAtFraction(0.5)
	none := func(int) bool { return false }
	all := func(int) bool { return true }
	if got := EclipsedFraction(len(ring), at(ring), none, lo, hi, 1); got != 0 {
		t.Errorf("honest ring eclipsed %v, want 0", got)
	}
	if got := EclipsedFraction(len(ring), at(ring), all, lo, hi, 3); math.Abs(got-1) > 1e-9 {
		t.Errorf("fully hostile ring eclipsed %v, want 1", got)
	}
	// Positions 5..8 own (0.25, 0.5] exactly (position i owns
	// ((i-1)/16, i/16]). With only the owners hostile, replicas=1 sees a
	// full eclipse but replicas=2 does not: the successor of position 8
	// is honest.
	owners := func(i int) bool { return i >= 5 && i <= 8 }
	if got := EclipsedFraction(len(ring), at(ring), owners, lo, hi, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("owner-only eclipse at replicas=1: %v, want 1", got)
	}
	got := EclipsedFraction(len(ring), at(ring), owners, lo, hi, 2)
	want := 0.75 // positions 5..7 still fully replicated on hostiles; 8's replica is honest
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("owner-only eclipse at replicas=2: %v, want %v", got, want)
	}
	// Degenerate inputs.
	if got := EclipsedFraction(0, nil, all, lo, hi, 1); got != 0 {
		t.Errorf("empty ring eclipsed %v", got)
	}
	if got := EclipsedFraction(1, at(ring[:1]), all, lo, hi, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("single hostile node eclipsed %v, want 1", got)
	}
}

func TestDensityRatioUniform(t *testing.T) {
	ring := uniformRing(32)
	for i := 0; i < 32; i++ {
		r := DensityRatio(len(ring), at(ring), i, 4)
		if math.Abs(r-1) > 1e-6 {
			t.Fatalf("uniform ring window %d has ratio %v, want 1", i, r)
		}
	}
}

func TestEstimateRingSize(t *testing.T) {
	// A clean successor-list view of a uniform ring recovers n exactly.
	ring := uniformRing(128)
	view := append([]ids.ID(nil), ring[10:19]...)
	if got := EstimateRingSize(view, nil); got != 128 {
		t.Errorf("clean view estimate = %d, want 128", got)
	}
	// A view dominated by a Sybil cluster (6 hostile of 9 entries) must
	// still estimate from the honest gaps: the largest-half mean resists
	// the near-zero cluster gaps a median would trip over. With the
	// cluster holding most of the view the estimate runs up to ~2x high
	// — the documented under-flagging direction — never low.
	poisoned := []ids.ID{ring[10], ring[11]}
	for i := 0; i < 6; i++ {
		poisoned = append(poisoned, IDAtFraction(ring[11].Float64()+1e-6*float64(i+1)))
	}
	poisoned = append(poisoned, ring[12])
	got := EstimateRingSize(poisoned, nil)
	if got < 96 || got > 300 {
		t.Errorf("poisoned view estimate = %d, want within [96, 300] of true 128", got)
	}
	// A gap buffer reused from an earlier view changes nothing.
	buf := make([]float64, 16)
	for i := range buf {
		buf[i] = 9
	}
	if again := EstimateRingSize(poisoned, buf); again != got {
		t.Errorf("poisoned view estimate with a reused buffer = %d, want %d", again, got)
	}
	// Degenerate views.
	if got := EstimateRingSize(nil, nil); got != 0 {
		t.Errorf("empty view estimate = %d, want 0", got)
	}
	if got := EstimateRingSize(ring[:1], nil); got != 1 {
		t.Errorf("singleton view estimate = %d, want 1", got)
	}
	dup := []ids.ID{ring[3], ring[3], ring[3]}
	if got := EstimateRingSize(dup, nil); got != len(dup) {
		t.Errorf("all-duplicate view estimate = %d, want %d", got, len(dup))
	}
}

func TestViewDensityRatio(t *testing.T) {
	ring := uniformRing(64)
	view := append([]ids.ID(nil), ring[20:28]...)
	for i := 0; i+4 <= len(view); i++ {
		if r := ViewDensityRatio(view, i, 4, 64); math.Abs(r-1) > 1e-6 {
			t.Fatalf("uniform view window %d ratio %v, want 1", i, r)
		}
	}
	// A cluster window at the estimated ring size reads far above any
	// sane threshold.
	cluster := []ids.ID{ring[20]}
	for i := 0; i < 4; i++ {
		cluster = append(cluster, IDAtFraction(ring[20].Float64()+1e-5*float64(i+1)))
	}
	if r := ViewDensityRatio(cluster, 1, 4, 64); r < 100 {
		t.Errorf("cluster window ratio %v, want >= 100", r)
	}
	// Identical endpoints follow the ids.ArcFraction full-circle
	// convention rather than reading as infinitely dense.
	dup := []ids.ID{ring[5], ring[5], ring[5]}
	if r := ViewDensityRatio(dup, 0, 3, 64); math.IsInf(r, 1) || r > 1 {
		t.Errorf("duplicate-ID window ratio %v, want full-circle (<= 1)", r)
	}
}
