package lint

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the time-package entry points that read or wait on
// the wall clock. time.Duration values and arithmetic are fine — only
// observing real time is a determinism hazard in simulation code.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// NoWallClock forbids wall-clock reads under internal/: the simulator's
// tick counter is the only clock, so results can never depend on host
// speed or scheduling. Exemptions: every file outside internal/ (the
// commands under cmd/ may report wall-clock progress, see cmd/dhtsweep),
// test files (which may sleep to exercise real concurrency),
// internal/netchord — the networked runtime is deliberately real-time
// (deadlines, tickers, backoff sleeps are its whole point; see
// docs/NETWORK.md), and it is import-isolated from the simulator so the
// tick-only guarantee there is untouched — and internal/streamload,
// whose real-time Engine plays sessions against a wall clock by design
// (docs/STREAMING.md; its deterministic sibling RunVirtual takes no
// wall-clock reads either way). Any other wall-clock read under
// internal/ must carry a //lint:ignore with a reason.
func NoWallClock() *Rule {
	return &Rule{
		Name: "nowallclock",
		Doc:  "forbid time.Now/Since/Sleep and timers under internal/; ticks are the only clock",
		Skip: func(relFile string, isTest bool) bool {
			return isTest || !strings.HasPrefix(relFile, "internal/") ||
				strings.HasPrefix(relFile, "internal/netchord/") ||
				strings.HasPrefix(relFile, "internal/streamload/")
		},
		Check: func(pkg *Package, file *ast.File, report ReportFunc) {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				ident, ok := sel.X.(*ast.Ident)
				if !ok || !wallClockFuncs[sel.Sel.Name] {
					return true
				}
				if path, ok := importedPkgName(pkg, file, ident); ok && path == "time" {
					report(sel, "time.%s reads the wall clock: simulation code under internal/ must be driven by ticks only (docs/LINTING.md)", sel.Sel.Name)
				}
				return true
			})
		},
	}
}
