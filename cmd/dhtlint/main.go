// Command dhtlint enforces the repository's determinism and concurrency
// invariants with a stdlib-only static-analysis pass (go/ast + go/types,
// no external tooling). Findings print as
//
//	file:line:col [rule] message
//
// and any finding makes the exit status nonzero, so `make lint` and CI
// fail closed. A run of the full registry also reports every
// //lint:ignore directive that suppressed nothing as a lint-stale
// finding. Rules, per-path exemptions, and the //lint:ignore
// suppression syntax are documented in docs/LINTING.md.
//
//	dhtlint ./...              # lint the whole module
//	dhtlint -list              # show the rule registry
//	dhtlint -rules norand ./internal/...
//	dhtlint -json ./...        # one JSON object per finding, for CI
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"chordbalance/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	flags := flag.NewFlagSet("dhtlint", flag.ContinueOnError)
	flags.SetOutput(errw)
	var (
		rulesFlag = flags.String("rules", "", "comma-separated subset of rules to run (default: all, which also reports stale //lint:ignore directives)")
		list      = flags.Bool("list", false, "list registered rules and exit")
		verbose   = flags.Bool("v", false, "also print type-checker diagnostics (never affect exit status)")
		jsonOut   = flags.Bool("json", false, "emit findings as JSON, one object per line (file/line/col/rule/message)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "dhtlint:", err)
		return 2
	}
	root, modPath, err := lint.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(errw, "dhtlint:", err)
		return 2
	}

	rules, err := selectRules(modPath, *rulesFlag)
	if err != nil {
		fmt.Fprintln(errw, "dhtlint:", err)
		return 2
	}
	if *list {
		for _, r := range rules {
			fmt.Fprintf(out, "%-14s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(errw, "dhtlint:", err)
		return 2
	}

	loader := lint.NewLoader(root, modPath)
	runner := &lint.Runner{Rules: rules, ModuleRoot: root}
	// A directive is audited only against the full registry: under a
	// -rules subset, one naming a rule that did not run would read as
	// stale.
	auditStale := *rulesFlag == ""
	var findings []lint.Finding
	for _, dir := range dirs {
		pkgs, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(errw, "dhtlint: %s: %v\n", dir, err)
			return 2
		}
		if *verbose {
			for _, p := range pkgs {
				for _, terr := range p.TypeErrors {
					fmt.Fprintf(errw, "dhtlint: typecheck %s: %v\n", p.Path, terr)
				}
			}
		}
		f, stale := runner.Run(pkgs...)
		findings = append(findings, f...)
		if auditStale {
			findings = append(findings, stale...)
		}
	}

	printFindings(out, findings, *jsonOut)
	if len(findings) > 0 {
		fmt.Fprintf(errw, "dhtlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// printFindings renders findings in text or JSON-lines form, in the
// runner's deterministic order.
func printFindings(out io.Writer, findings []lint.Finding, asJSON bool) {
	if !asJSON {
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
		return
	}
	enc := json.NewEncoder(out)
	for _, f := range findings {
		// Encode never fails on this plain struct; an out write error
		// would already have broken the text path the same way.
		_ = enc.Encode(jsonFinding{
			File:    f.Pos.Filename,
			Line:    f.Pos.Line,
			Col:     f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
		})
	}
}

// selectRules resolves -rules against the registry.
func selectRules(modPath, spec string) ([]*lint.Rule, error) {
	all := lint.DefaultRules(modPath)
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Rule, len(all))
	for _, r := range all {
		byName[r.Name] = r
	}
	var out []*lint.Rule
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (use -list)", name)
		}
		out = append(out, r)
	}
	return out, nil
}

// expandPatterns turns go-style package patterns into a sorted list of
// directories containing Go files. Supported forms: a directory path,
// or a path ending in /... for a recursive walk.
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = cwd
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
