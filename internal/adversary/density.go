package adversary

// Per-arc ID-density anomaly detection, after the 2025 IPFS
// active-Sybil defense (de Moura Netto et al.): an eclipse cluster is
// visible in the ring order array as a window of consecutive IDs packed
// far tighter than uniform placement predicts. Under uniform SHA-1
// placement of n IDs, w consecutive nodes span w-1 gaps of expected
// total (w-1)/n of the ring; a window whose actual span is Threshold
// times smaller is statistically improbable and gets flagged.
//
// The catch — and the reason the sybilwar sweep tracks a false-eviction
// rate — is that the paper's *honest* balancing strategies mint dense
// IDs by design (a Sybil lands inside a loaded arc to split it), so an
// aggressive threshold evicts the balancer along with the attacker.

import (
	"math"
	"sort"

	"chordbalance/internal/ids"
)

// DensityRatio returns how many times tighter the window of w
// consecutive ring positions starting at position i is packed than
// uniform placement of n IDs predicts. Ratio 1 is exactly uniform
// density; an eclipse cluster shows up as a large ratio. The window
// wraps around the ring. Requires n >= 2 and 2 <= w <= n.
func DensityRatio(n int, at func(int) ids.ID, i, w int) float64 {
	span := ids.ArcFraction(at(i), at((i+w-1)%n))
	expected := float64(w-1) / float64(n)
	if span <= 0 {
		return math.Inf(1)
	}
	return expected / span
}

// Detector runs the density scan over a ring order array. It owns only
// scratch buffers, so one Detector per runtime amortizes allocation
// across scans; it is not safe for concurrent use.
type Detector struct {
	cfg DefenseConfig

	mark []bool
	out  []int
}

// NewDetector validates the config, applies defaults, and builds a
// detector. The caller should gate on DetectionOn: a detector built
// from a scan-disabled config flags nothing.
func NewDetector(cfg DefenseConfig) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg.withDefaults()}, nil
}

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() DefenseConfig { return d.cfg }

// Flagged scans every window of Window consecutive positions of the
// n-node ring order array (at(i) is the i-th ID in ring order) and
// returns the positions covered by at least one window whose density
// ratio is at least Threshold, in ascending position order. The slice
// is reused across calls. Rings no larger than the window are never
// flagged: with the whole ring inside one window there is no uniform
// remainder to compare against.
func (d *Detector) Flagged(n int, at func(int) ids.ID) []int {
	d.out = d.out[:0]
	if !d.cfg.DetectionOn() || n <= d.cfg.Window {
		return d.out
	}
	if cap(d.mark) < n {
		d.mark = make([]bool, n)
	}
	mark := d.mark[:n]
	for i := range mark {
		mark[i] = false
	}
	w := d.cfg.Window
	for i := 0; i < n; i++ {
		if DensityRatio(n, at, i, w) < d.cfg.Threshold {
			continue
		}
		for k := 0; k < w; k++ {
			mark[(i+k)%n] = true
		}
	}
	for i, m := range mark {
		if m {
			d.out = append(d.out, i)
		}
	}
	return d.out
}

// EclipsedFraction measures eclipse success: the fraction of the target
// arc [lo, hi) whose full replica set is hostile. Position i of the
// n-node ring order array owns the keys in (at(i-1), at(i]]; a stretch
// of the target arc counts as eclipsed when its owner and the owner's
// next replicas-1 ring successors are all hostile — every copy of those
// keys then lives on adversary identities. With replicas < 1 only the
// owner is considered. Keys are uniform over the keyspace, so arc
// length stands in for key count.
func EclipsedFraction(n int, at func(int) ids.ID, hostile func(int) bool, lo, hi ids.ID, replicas int) float64 {
	width := ids.ArcFraction(lo, hi)
	if n == 0 || width <= 0 {
		return 0
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > n {
		replicas = n
	}
	target := lo.Float64()
	eclipsed := 0.0
	for i := 0; i < n; i++ {
		ownStart := at((i + n - 1) % n)
		ownLen := ids.ArcFraction(ownStart, at(i))
		if n == 1 {
			ownLen = 1 // a lone node owns the whole ring
		}
		ov := circOverlap(ownStart.Float64(), ownLen, target, width)
		if ov <= 0 {
			continue
		}
		all := true
		for k := 0; k < replicas; k++ {
			if !hostile((i + k) % n) {
				all = false
				break
			}
		}
		if all {
			eclipsed += ov
		}
	}
	f := eclipsed / width
	if f > 1 {
		f = 1 // float slack from summing many tiny overlaps
	}
	return f
}

// EstimateRingSize estimates the total ring population from a node's
// partial view (its own ID plus its successor list, in ring order).
// A live node never sees the full ring order array, so the uniform
// expectation DensityRatio needs must come from the view itself: under
// uniform placement of n IDs the mean consecutive gap is 1/n. The naive
// mean (and even the median) is ruined by exactly the thing being
// detected — a Sybil cluster inside the view packs most gaps near zero
// — so the estimate uses the mean of the *largest half* of the view's
// gaps, the half an eclipse cluster cannot shrink without already
// owning the whole view. When the cluster holds most of the view the
// estimate runs high (up to ~2x), which shrinks density ratios and errs
// toward flagging less, never more. The result is clamped to at least
// the view size. Views smaller than two IDs return the view size
// unchanged. gaps is memory for the view's gaps, reused when its
// capacity holds them; a nil gaps allocates.
func EstimateRingSize(view []ids.ID, gaps []float64) int {
	if len(view) < 2 {
		return len(view)
	}
	gaps = gaps[:0]
	for i := 0; i+1 < len(view); i++ {
		gaps = append(gaps, ids.ArcFraction(view[i], view[i+1]))
	}
	sort.Float64s(gaps)
	top := gaps[len(gaps)/2:]
	sum := 0.0
	for _, g := range top {
		sum += g
	}
	if sum <= 0 {
		return len(view)
	}
	n := int(math.Round(float64(len(top)) / sum))
	if n < len(view) {
		n = len(view)
	}
	return n
}

// ViewDensityRatio is DensityRatio for a non-wrapping window of a
// partial view: how many times tighter the w consecutive view entries
// starting at index i sit than uniform placement of ringSize IDs
// predicts. The view must be in ring order and the window must fit
// (i+w <= len(view)); ringSize normally comes from EstimateRingSize.
// Identical window endpoints read as a full-circle span (the
// ids.ArcFraction convention), so duplicate-free views never hit the
// +Inf guard it shares with DensityRatio.
func ViewDensityRatio(view []ids.ID, i, w, ringSize int) float64 {
	span := ids.ArcFraction(view[i], view[i+w-1])
	expected := float64(w-1) / float64(ringSize)
	if span <= 0 {
		return math.Inf(1)
	}
	return expected / span
}

// circOverlap returns the overlap length of the circular arcs
// [a0, a0+la) and [b0, b0+lb), all in ring fractions with a0, b0 in
// [0, 1) and lengths in [0, 1]. Unrolling one turn each way covers
// every wrap case.
func circOverlap(a0, la, b0, lb float64) float64 {
	total := 0.0
	for _, shift := range [3]float64{-1, 0, 1} {
		s := a0 + shift
		l := math.Max(s, b0)
		h := math.Min(s+la, b0+lb)
		if h > l {
			total += h - l
		}
	}
	return total
}
