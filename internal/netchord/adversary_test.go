package netchord

import (
	"errors"
	"testing"
	"time"

	"chordbalance/internal/adversary"
	"chordbalance/internal/wire"
)

// TestJoinPuzzleGate checks puzzle-cost admission on the live join
// path: a ring running with PuzzleBits set forms normally (the honest
// path solves the puzzle transparently inside Join), while a hand-built
// TJoin carrying a bogus nonce is refused outright.
func TestJoinPuzzleGate(t *testing.T) {
	cfg := testConfig()
	cfg.PuzzleBits = 8
	tr := NewPipeTransport()
	nodes := startRing(t, tr, cfg, 3) // forming at all proves honest admission
	awaitRing(t, cfg, nodes, 30*time.Second)

	outsider, err := NewNode(cfg, tr, nil, adversary.IDAtFraction(0.42), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(outsider.Close)
	bad := uint64(0)
	for adversary.VerifyPuzzle(outsider.ID(), bad, cfg.PuzzleBits) {
		bad++
	}
	err = outsider.pool.call(nodes[0].Ref(), &wire.Msg{Type: wire.TJoin, From: outsider.ref, A: bad}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("unsolved join puzzle not refused: err = %v", err)
	}
}

// attackPlan is the shared attack dose for the live eclipse tests: six
// hostile identities aimed at one eighth of the ring, with enough work
// per tick that puzzle-free minting is instant.
func attackPlan() adversary.AttackConfig {
	return adversary.AttackConfig{
		Budget:      6,
		MintEvery:   1,
		TargetStart: 0.2,
		TargetWidth: 1.0 / 8,
		WorkRate:    300,
	}
}

// runAttack boots a StrategyNone cluster under cfg, points an
// AttackHost at it, and samples MeasureEclipse until either the
// predicate is satisfied or the timeout passes. It returns the last
// observed eclipse fraction and the attacker's final stats.
func runAttack(t *testing.T, cfg Config, timeout time.Duration, done func(eclipse float64, st AttackStats) bool) (float64, AttackStats) {
	t.Helper()
	c, err := NewCluster(cfg, NewPipeTransport(), nil, 10, StrategyNone, 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if !c.AwaitConverged(60 * time.Second) {
		t.Fatal("10-node ring did not converge")
	}
	a, err := NewAttackHost(cfg, c.tr, nil, attackPlan(), 5, c.SeedAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	lo, hi := a.Target()
	a.Start()

	deadline := time.Now().Add(timeout)
	eclipse := 0.0
	for {
		honest := make([]*Node, 0, 16)
		for _, h := range c.Hosts() {
			honest = append(honest, h.Nodes()...)
		}
		eclipse = MeasureEclipse(honest, a.Nodes(), lo, hi, cfg.Replicas)
		if done(eclipse, a.Stats()) || time.Now().After(deadline) {
			return eclipse, a.Stats()
		}
		time.Sleep(10 * cfg.TickEvery)
	}
}

// TestEclipseSuppressedByDefense is the live half of the sybilwar
// acceptance criterion: the same attack dose that eclipses part of the
// target arc on an undefended cluster is measurably suppressed when the
// cluster turns on puzzle admission and the density scan — hostile
// identities actually get evicted over the wire, and the eclipse the
// attacker can hold stays strictly below the undefended mark.
func TestEclipseSuppressedByDefense(t *testing.T) {
	if testing.Short() {
		t.Skip("two live clusters in -short mode")
	}
	cfg := clusterConfig()
	undefEclipse, undefStats := runAttack(t, cfg, 45*time.Second,
		func(e float64, _ AttackStats) bool { return e > 0 })
	if undefEclipse <= 0 {
		t.Fatalf("undefended attack achieved no eclipse: %+v", undefStats)
	}
	if undefStats.Minted == 0 {
		t.Fatalf("undefended attack minted nothing: %+v", undefStats)
	}

	dcfg := clusterConfig()
	dcfg.PuzzleBits = 10 // mint cost 1025 vs WorkRate 300: ~1 identity per 4 ticks
	dcfg.DensityThreshold = 8
	dcfg.DensityWindow = 4
	dcfg.DensityEveryTicks = 4 // scan every stabilize round
	// Run until the defense has demonstrably fired a few times, then take
	// the eclipse reading of that moment.
	defEclipse, defStats := runAttack(t, dcfg, 45*time.Second,
		func(e float64, st AttackStats) bool { return st.Evicted >= 3 && e < undefEclipse })
	if defStats.Evicted == 0 {
		t.Errorf("defense never evicted a hostile identity: %+v", defStats)
	}
	if defEclipse >= undefEclipse {
		t.Errorf("defense did not suppress the eclipse: defended %.4f >= undefended %.4f (stats %+v)",
			defEclipse, undefEclipse, defStats)
	}
}
