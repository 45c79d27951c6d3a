package lint

import "testing"

func TestNoWallClockFires(t *testing.T) {
	src := `package fixture

import "time"

func f() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	_ = time.NewTicker(time.Second)
	return time.Since(start)
}
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "nowallclock", 6, 7, 8, 9)
}

func TestNoWallClockAllowsDurations(t *testing.T) {
	src := `package fixture

import "time"

const tick = 50 * time.Millisecond

func f(d time.Duration) time.Duration { return d.Round(time.Second) }
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "nowallclock")
}

func TestNoWallClockExemptsCmdAndTests(t *testing.T) {
	src := `package fixture

import "time"

var t0 = time.Now()
`
	got := checkFixture(t, NoWallClock(), map[string]string{"cmd/fix/a.go": src})
	wantFindings(t, got, "nowallclock")
	got = checkFixture(t, NoWallClock(), map[string]string{"internal/fix/a_test.go": src})
	wantFindings(t, got, "nowallclock")
}

func TestNoWallClockExemptsNetchord(t *testing.T) {
	// internal/netchord is the deliberately real-time networked runtime:
	// deadlines, tickers, and backoff sleeps are the point there, and it
	// is import-isolated from the simulator.
	src := `package fixture

import "time"

var t0 = time.Now()
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/netchord/a.go": src})
	wantFindings(t, got, "nowallclock")
}

func TestNoWallClockExemptsOnlyStreamloadLiveSource(t *testing.T) {
	// live.go is the streaming engine's wall-clock source; the session
	// loop beside it also runs the virtual driver and must stay checked.
	src := `package fixture

import "time"

var t0 = time.Now()
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/streamload/live.go": src})
	wantFindings(t, got, "nowallclock")
	got = checkFixture(t, NoWallClock(), map[string]string{"internal/streamload/engine.go": src})
	wantFindings(t, got, "nowallclock", 5)
}

func TestNoWallClockRenamedImport(t *testing.T) {
	src := `package fixture

import clock "time"

var t0 = clock.Now()
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "nowallclock", 5)
}

func TestNoWallClockShadowedIdent(t *testing.T) {
	src := `package fixture

type fake struct{}

func (fake) Now() int { return 0 }

func f() int {
	time := fake{}
	return time.Now()
}
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "nowallclock")
}

func TestNoWallClockRespectsIgnore(t *testing.T) {
	src := `package fixture

import "time"

//lint:ignore nowallclock this component is deliberately real-time
var t0 = time.Now()
`
	got := checkFixture(t, NoWallClock(), map[string]string{"internal/fix/a.go": src})
	wantFindings(t, got, "nowallclock")
}
