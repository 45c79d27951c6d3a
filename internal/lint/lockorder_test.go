package lint

import (
	"strings"
	"testing"
)

func TestLockOrderDirectInversion(t *testing.T) {
	src := `package fixture

import "sync"

var muA sync.Mutex
var muB sync.Mutex

func first() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func second() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`
	got := checkFixture(t, LockOrder(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "lockorder", 10)
	if !strings.Contains(got[0].Message, "first") || !strings.Contains(got[0].Message, "second") {
		t.Errorf("inversion message must carry both witness paths, got: %s", got[0].Message)
	}
}

func TestLockOrderInterproceduralInversion(t *testing.T) {
	src := `package fixture

import "sync"

var muA sync.Mutex
var muB sync.Mutex

func lockB() {
	muB.Lock()
	muB.Unlock()
}

func aThenB() {
	muA.Lock()
	lockB()
	muA.Unlock()
}

func bThenA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`
	got := checkFixture(t, LockOrder(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "lockorder", 15)
	if !strings.Contains(got[0].Message, "lockB") {
		t.Errorf("interprocedural witness must name the callee, got: %s", got[0].Message)
	}
}

func TestLockOrderSelfReacquire(t *testing.T) {
	src := `package fixture

import "sync"

var mu sync.Mutex

func double() {
	mu.Lock()
	mu.Lock()
	mu.Unlock()
	mu.Unlock()
}

func lockIt() {
	mu.Lock()
	mu.Unlock()
}

func reenter() {
	mu.Lock()
	lockIt()
	mu.Unlock()
}
`
	got := checkFixture(t, LockOrder(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "lockorder", 9, 21)
}

// TestLockOrderShardMergePhase models a fan-out/merge phase. In the
// clean half shard workers write disjoint per-shard scratch with no
// locks at all, and the merge runs strictly after the fan-out returns —
// nothing to flag. In the dirty half shard workers take a shared stats
// lock while the coordinator holds the engine lock, with the merge path
// acquiring the same pair inverted.
func TestLockOrderShardMergePhase(t *testing.T) {
	src := `package fixture

import "sync"

var engineMu sync.Mutex
var statsMu sync.Mutex

type shard struct{ consumed int }

// Clean: per-shard scratch, barrier, lock-free shard-order merge.
func tickFanOut(shards []shard) int {
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.consumed++
		}(&shards[i])
	}
	wg.Wait()
	total := 0
	for i := range shards {
		total += shards[i].consumed
	}
	return total
}

// Dirty: coordinator holds engineMu while shard work takes statsMu...
func tickLocked() {
	engineMu.Lock()
	statsMu.Lock()
	statsMu.Unlock()
	engineMu.Unlock()
}

// ...and the merge path acquires the same pair in the opposite order.
func mergeLocked() {
	statsMu.Lock()
	engineMu.Lock()
	engineMu.Unlock()
	statsMu.Unlock()
}
`
	got := checkFixture(t, LockOrder(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "lockorder", 31)
	if !strings.Contains(got[0].Message, "tickLocked") || !strings.Contains(got[0].Message, "mergeLocked") {
		t.Errorf("inversion message must carry both witness paths, got: %s", got[0].Message)
	}
}

func TestLockOrderConsistentOrderClean(t *testing.T) {
	src := `package fixture

import "sync"

var muA sync.Mutex
var muB sync.Mutex

func one() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func two() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}
`
	got := checkFixture(t, LockOrder(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "lockorder")
}

func TestLockOrderRespectsIgnore(t *testing.T) {
	src := `package fixture

import "sync"

var muA sync.Mutex
var muB sync.Mutex

func first() {
	muA.Lock()
	//lint:ignore lockorder documented exception for the fixture
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func second() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`
	got := checkFixture(t, LockOrder(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "lockorder")
}
