package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chordbalance/internal/lint"
)

// writeModule lays out a throwaway module under a temp dir and chdirs
// into it so run() resolves the module root there.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module tmpmod\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

func TestRunFindsViolations(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/badpkg/bad.go": `package badpkg

import "math/rand"

func Draw() int { return rand.Int() }
`,
	})
	var out, errw bytes.Buffer
	code := run([]string{"./..."}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "[norand]") {
		t.Errorf("missing [norand] finding in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "internal/badpkg/bad.go:3:") {
		t.Errorf("finding not anchored at the import line:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "finding(s)") {
		t.Errorf("missing summary on stderr: %s", errw.String())
	}
}

func TestRunCleanTreeExitsZero(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/goodpkg/good.go": `// Package goodpkg is a documented, rule-abiding fixture.
package goodpkg

// Add returns a+b.
func Add(a, b int) int { return a + b }
`,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"./..."}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree produced output: %s", out.String())
	}
}

func TestRunIgnoreDirectiveSuppresses(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/badpkg/bad.go": `// Package badpkg exercises the suppression path.
package badpkg

//lint:ignore norand exercising the suppression path end to end
import "math/rand"

// Draw draws from the suppressed source.
func Draw() int { return rand.Int() }
`,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"./..."}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
}

func TestRunRulesSubset(t *testing.T) {
	// The file violates norand, but running only nowallclock must pass.
	writeModule(t, map[string]string{
		"internal/badpkg/bad.go": `package badpkg

import "math/rand"

func Draw() int { return rand.Int() }
`,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-rules", "nowallclock", "./..."}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errw.String())
	}
	if code := run([]string{"-rules", "nosuchrule"}, &out, &errw); code != 2 {
		t.Fatalf("unknown rule: exit = %d, want 2", code)
	}
}

func TestRunJSONOutput(t *testing.T) {
	writeModule(t, map[string]string{
		"internal/badpkg/bad.go": `package badpkg

import "math/rand"

func Draw() int { return rand.Int() }
`,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	sawNorand := false
	for _, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line %q is not a JSON object: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if f.Rule == "norand" && f.File == "internal/badpkg/bad.go" && f.Line == 3 {
			sawNorand = true
		}
	}
	if !sawNorand {
		t.Errorf("missing norand finding at internal/badpkg/bad.go:3 in:\n%s", out.String())
	}
}

// TestRunReportsStaleDirectives: a full-registry run reports a
// //lint:ignore that suppresses nothing as a lint-stale finding and
// fails.
func TestRunReportsStaleDirectives(t *testing.T) {
	writeModule(t, staleFixture)
	var out, errw bytes.Buffer
	if code := run([]string{"./..."}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1 (a stale directive is a finding)\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "[lint-stale]") || !strings.Contains(out.String(), "norand") {
		t.Errorf("missing stale-directive report:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "1 finding(s)") {
		t.Errorf("missing stderr summary: %s", errw.String())
	}
}

// TestRunRulesSubsetSkipsStaleAudit: a -rules run cannot tell a stale
// directive from one naming a rule it did not run, so it audits none.
func TestRunRulesSubsetSkipsStaleAudit(t *testing.T) {
	writeModule(t, staleFixture)
	var out, errw bytes.Buffer
	if code := run([]string{"-rules", "nowallclock", "./..."}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
}

// staleFixture holds one //lint:ignore directive that suppresses
// nothing.
var staleFixture = map[string]string{
	"internal/pkg/a.go": `// Package pkg is a fixture with a stale directive.
package pkg

// Add returns a+b.
func Add(a, b int) int {
	//lint:ignore norand nothing random here anymore
	return a + b
}
`,
}

// TestSelfLint runs the full registry over this repository itself: the
// tree must stay clean, and every remaining //lint:ignore must still
// suppress something.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is slow")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := lint.FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{filepath.Join(root, "...")}, &out, &errw); code != 0 {
		t.Errorf("repository does not self-lint (exit %d):\n%s%s", code, out.String(), errw.String())
	}
}

func TestRunList(t *testing.T) {
	writeModule(t, nil)
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, rule := range []string{
		"norand", "nowallclock", "maporder", "mutexcopy", "seedflow", "errcheck-lite", "doccomment",
		"lockheld", "lockorder", "goroleak", "chanownership",
	} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing rule %s:\n%s", rule, out.String())
		}
	}
}
