package netchord

import (
	"errors"
	"testing"

	"chordbalance/internal/adversary"
	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// TestJoinPuzzleGate checks puzzle-cost admission on the join path: a
// ring running with PuzzleBits set forms normally (the honest path
// solves the puzzle transparently inside Join), while a hand-built
// TJoin carrying a bogus nonce is refused outright.
func TestJoinPuzzleGate(t *testing.T) {
	l := lockstepRing(t, Config{PuzzleBits: 8}, faults.Plan{}, 3, 42) // forming at all proves honest admission
	outsider, err := NewNode(l.cfg, l.tr, nil, adversary.IDAtFraction(0.42), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(outsider.Close)
	bad := uint64(0)
	for adversary.VerifyPuzzle(outsider.ID(), bad, l.cfg.PuzzleBits) {
		bad++
	}
	err = outsider.pool.call(l.Nodes()[0].Ref(), &wire.Msg{Type: wire.TJoin, From: outsider.ref, A: bad}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("unsolved join puzzle not refused: err = %v", err)
	}
}

// attackPlan is the shared attack dose for the eclipse tests: six
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

// attackOutcome is what one lockstep attack run ends with.
type attackOutcome struct {
	eclipse                  float64
	minted, evicted, blocked int
}

// runAttack builds a 10-node lockstep ring under cfg and plays the
// attackPlan dose against it for the given rounds, the test goroutine
// acting as the attacker. Each round it accrues StabilizeEveryTicks
// ticks of work, minting on the plan's cadence through the ring's real
// join path (so PuzzleBits costs actual puzzle solving), then runs one
// maintenance round. A hostile node that was served a density-scan
// TEvict in that round complies: it leaves, and the freed budget pays
// for a fresh clustered ID — the re-mint response to eviction. The run
// ends with the eclipsed fraction of the target arc over the true
// membership.
func runAttack(t *testing.T, cfg Config, rounds int) attackOutcome {
	t.Helper()
	l := lockstepRing(t, cfg, faults.Plan{}, 10, 77)
	att, err := adversary.NewAttacker(attackPlan())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	cost := 1 + adversary.PuzzleCost(cfg.PuzzleBits)
	hostile := make(map[ids.ID]bool) // the live hostile IDs
	var out attackOutcome
	tick := 0
	for range rounds {
		for range StabilizeEveryTicks {
			att.Accrue()
			tick++
			if tick%att.Config().MintEvery != 0 || !att.CanMint(cost) {
				continue
			}
			n, err := l.Join(att.MintID(rng))
			if err != nil {
				out.blocked++ // an occupied ID or a refused join costs nothing
				continue
			}
			att.Minted(cost)
			hostile[n.ID()] = true
		}
		l.Round()
		var evicted []ids.ID
		for _, n := range l.Nodes() {
			if hostile[n.ID()] && n.Stats().Served[wire.TEvict] > 0 {
				evicted = append(evicted, n.ID())
			}
		}
		for _, id := range evicted {
			if err := l.Leave(id); err != nil {
				t.Fatalf("evicted hostile node %s: leave: %v", id.Short(), err)
			}
			delete(hostile, id)
			att.Evicted()
		}
	}
	lo, hi := att.Target()
	nodes := l.Nodes()
	out.eclipse = adversary.EclipsedFraction(len(nodes),
		func(i int) ids.ID { return nodes[i].ID() },
		func(i int) bool { return hostile[nodes[i].ID()] },
		lo, hi, l.cfg.Replicas)
	out.minted, out.evicted = att.MintCount(), att.EvictCount()
	return out
}

// TestEclipseSuppressedByDefense is the networked half of the sybilwar
// acceptance criterion: the attack dose that eclipses most of the
// target arc on an undefended ring is measurably suppressed when the
// ring turns on puzzle admission and the density scan. Hostile
// identities are evicted over the wire, the eclipse the attacker holds
// stays strictly below the undefended mark, and a rerun under the same
// seed repeats every count.
func TestEclipseSuppressedByDefense(t *testing.T) {
	const rounds = 25
	undef := runAttack(t, Config{}, rounds)
	if undef.eclipse <= 0 || undef.minted == 0 {
		t.Fatalf("undefended attack achieved no eclipse: %+v", undef)
	}
	if undef.evicted != 0 {
		t.Fatalf("undefended ring evicted hostile identities: %+v", undef)
	}

	// Mint cost 1025 against WorkRate 300: about one identity per
	// maintenance round.
	defended := Config{PuzzleBits: 10, DensityThreshold: 8}
	def := runAttack(t, defended, rounds)
	if def.evicted == 0 {
		t.Errorf("defense never evicted a hostile identity: %+v", def)
	}
	if def.eclipse >= undef.eclipse {
		t.Errorf("defense did not suppress the eclipse: defended %+v, undefended %+v", def, undef)
	}
	if again := runAttack(t, defended, rounds); again != def {
		t.Errorf("same seed, different run: %+v then %+v", def, again)
	}
}

// TestHonestRingNotEvicted is the defense's no-false-positive
// invariant: on an honest ring of evenly spaced nodes, which no window
// can make look dense, the density scan sends no eviction notice at any
// ring size, including while fresh joiners' successor lists are still
// filling.
func TestHonestRingNotEvicted(t *testing.T) {
	for _, n := range []int{16, 32, 48, 64, 128} {
		i := 0
		even := func() ids.ID {
			id := adversary.IDAtFraction(float64(i) / float64(n))
			i++
			return id
		}
		l, err := NewLockstep(Config{DensityThreshold: 8}, faults.Plan{}, n, even)
		if err != nil {
			t.Fatal(err)
		}
		for range 64 {
			l.Round()
		}
		var notices int64
		for _, nd := range l.Nodes() {
			notices += nd.Stats().EvictsSent
		}
		l.Close()
		if notices != 0 {
			t.Errorf("%d-node honest ring: %d eviction notices, want 0", n, notices)
		}
	}
}
