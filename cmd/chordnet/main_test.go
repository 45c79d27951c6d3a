package main

import (
	"strings"
	"testing"
)

func script(t *testing.T, lines ...string) string {
	t.Helper()
	var out strings.Builder
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if err := run(in, &out, false); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

func TestCreatePutGet(t *testing.T) {
	out := script(t,
		"create 8",
		"put alice hello world",
		"get alice",
		"quit")
	if !strings.Contains(out, "overlay up: 8 nodes") {
		t.Errorf("missing create ack:\n%s", out)
	}
	if !strings.Contains(out, "hello world") {
		t.Errorf("missing value:\n%s", out)
	}
}

func TestLookupAndRing(t *testing.T) {
	out := script(t,
		"create 6",
		"lookup somekey",
		"ring",
		"stats",
		"quit")
	if !strings.Contains(out, "owner ") || !strings.Contains(out, "hops") {
		t.Errorf("lookup output missing:\n%s", out)
	}
	if !strings.Contains(out, "  0  ") {
		t.Errorf("ring listing missing:\n%s", out)
	}
	if !strings.Contains(out, "messages=") {
		t.Errorf("stats missing:\n%s", out)
	}
}

func TestKillAndHealKeepsData(t *testing.T) {
	out := script(t,
		"create 12",
		"put k important",
		"maint 3",
		"kill 4",
		"heal",
		"get k",
		"quit")
	if !strings.Contains(out, "killed ") {
		t.Errorf("kill ack missing:\n%s", out)
	}
	if !strings.Contains(out, "converged after ") {
		t.Errorf("heal ack missing:\n%s", out)
	}
	if !strings.Contains(out, "important") {
		t.Errorf("data lost after crash:\n%s", out)
	}
}

func TestJoinAndLeave(t *testing.T) {
	out := script(t,
		"create 4",
		"join",
		"heal",
		"leave 2",
		"heal",
		"ring",
		"quit")
	if !strings.Contains(out, "joined ") || !strings.Contains(out, "left ") {
		t.Errorf("join/leave missing:\n%s", out)
	}
	// 4 + 1 - 1 = 4 nodes: indices 0..3 present, 4 absent.
	if !strings.Contains(out, "  3  ") || strings.Contains(out, "  4  ") {
		t.Errorf("ring size wrong:\n%s", out)
	}
}

func TestErrorsAreReportedNotFatal(t *testing.T) {
	out := script(t,
		"get before-create",
		"create 3",
		"bogus",
		"get missing",
		"kill 99",
		"put onlykey",
		"quit")
	wants := []string{
		"no overlay yet",
		"unknown command",
		"not found",
		"usage: kill INDEX",
		"usage: put KEY VALUE",
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("missing error %q:\n%s", w, out)
		}
	}
}

func TestTraceAndDist(t *testing.T) {
	out := script(t,
		"create 8",
		"put doc1 x",
		"put doc2 y",
		"trace doc1",
		"dist",
		"stats",
		"quit")
	if !strings.Contains(out, " => ") {
		t.Errorf("trace output missing:\n%s", out)
	}
	if !strings.Contains(out, " keys") {
		t.Errorf("dist output missing:\n%s", out)
	}
	if !strings.Contains(out, "mean-replication=") || !strings.Contains(out, "ring-ok=true") {
		t.Errorf("stats output missing:\n%s", out)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	out := script(t,
		"# a comment",
		"",
		"create 3",
		"help",
		"quit")
	if !strings.Contains(out, "commands:") {
		t.Errorf("help missing:\n%s", out)
	}
}

func TestPlanChaosPartitionHeal(t *testing.T) {
	out := script(t,
		"create 16",
		"put k important",
		"maint 5",
		"plan",
		"plan crash=0.02 burst-every=5 burst-size=1 seed=9",
		"plan",
		"chaos 20 200",
		"heal",
		"get k",
		"partition 0.5",
		"stats",
		"heal",
		"get k",
		"plan off",
		"quit")
	for _, want := range []string{
		"no fault plan installed",
		"fault plan installed",
		"crash=0.02",
		"mean-time-to-repair=",
		"keys: tracked=1 recovered=1 lost=0",
		"partitioned at 0.5",
		"partition lifted",
		"converged after",
		"important",
		"fault plan cleared",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestChaosWithoutPlanErrors(t *testing.T) {
	out := script(t,
		"create 4",
		"chaos 5",
		"partition 2",
		"plan nonsense",
		"quit")
	for _, want := range []string{
		"no fault plan installed",
		"outside (0,1)",
		"bad plan setting",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestAttackAndDefend(t *testing.T) {
	out := script(t,
		"create 12",
		"attack budget=6 start=0.2 width=0.0625 seed=3",
		"attack",
		"defend thr=4 window=4",
		"attack",
		"attack off",
		"quit")
	if !strings.Contains(out, "attack up: 6 hostile identities") {
		t.Errorf("attack launch missing:\n%s", out)
	}
	if !strings.Contains(out, "live=6") {
		t.Errorf("attack status missing:\n%s", out)
	}
	if !strings.Contains(out, "evicted-hostile=") || !strings.Contains(out, "false-eviction-rate=") {
		t.Errorf("defend report missing:\n%s", out)
	}
	if !strings.Contains(out, "attack withdrawn") {
		t.Errorf("attack off ack missing:\n%s", out)
	}
	// Six identities crammed into 1/16 of a 12-node ring must trip a
	// threshold-4 scan: at least one hostile eviction.
	if strings.Contains(out, "evicted-hostile=0 ") {
		t.Errorf("defend pass never evicted a hostile identity:\n%s", out)
	}
}

func TestDefendHonestRingQuiet(t *testing.T) {
	out := script(t,
		"create 10",
		"defend thr=8 window=4",
		"quit")
	if !strings.Contains(out, "flagged=0") {
		t.Errorf("honest ring flagged at threshold 8:\n%s", out)
	}
}

func TestAttackBadArgs(t *testing.T) {
	out := script(t,
		"create 4",
		"attack bogus=1",
		"attack budget=x",
		"defend thr=x",
		"attack",
		"quit")
	for _, want := range []string{"unknown attack key", "bad budget value", "bad thr value", "no attack installed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestScriptOutputIsDeterministic runs the protocol chaos script from
// `make chaos`, plus lookup, trace and stats, twice. The shell must
// print byte-identical output both times: every client command enters
// the ring at the same node, so hop counts, message totals and the
// chaos run's fault draws repeat exactly.
func TestScriptOutputIsDeterministic(t *testing.T) {
	lines := []string{
		"create 24",
		"put k v",
		"maint 5",
		"plan crash=0.01 burst-every=10 burst-size=2 drop=0.1 seed=1",
		"chaos 30",
		"heal",
		"get k",
		"lookup alpha",
		"trace alpha",
		"stats",
		"quit",
	}
	first, second := script(t, lines...), script(t, lines...)
	if first != second {
		t.Errorf("same script, different output:\n--- first\n%s--- second\n%s", first, second)
	}
}
