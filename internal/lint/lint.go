// Package lint is a stdlib-only static-analysis framework enforcing the
// determinism and concurrency discipline this reproduction depends on:
// every trial must be exactly reproducible from its seed, regardless of
// goroutine scheduling, worker count, or map iteration order.
//
// It is built on go/ast, go/parser, go/token, and go/types alone — no
// golang.org/x/tools — preserving the repository's no-external-deps
// constraint. Rules are registered by name, carry per-path exemption
// logic, and individual findings can be suppressed with a
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// comment on the offending line or on the line directly above it. The
// reason is mandatory: a suppression without a documented reason is
// itself reported. See docs/LINTING.md for the rule catalog.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic, rendered as "file:line:col [rule] message".
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Package is one type-checked lint unit.
type Package struct {
	// Path is the unit's import path ("chordbalance/internal/sim";
	// external test packages carry a "_test" suffix).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics. Rules still run on
	// partial information; the driver can surface these for debugging.
	TypeErrors []error

	// lockan caches the package-wide lockset/call-graph analysis shared
	// by the concurrency rules (see lockset.go).
	lockan *lockAnalysis
}

// ReportFunc emits one finding anchored at node.
type ReportFunc func(node ast.Node, format string, args ...any)

// Rule is one named analyzer.
type Rule struct {
	// Name identifies the rule in findings and //lint:ignore directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Skip reports whether the rule is exempt for the given
	// module-relative file path. It encodes the rule's per-path policy
	// (e.g. nowallclock applies only under internal/ and never to tests).
	Skip func(relFile string, isTest bool) bool
	// Check analyzes one file of pkg, reporting findings.
	Check func(pkg *Package, file *ast.File, report ReportFunc)
}

// DefaultRules returns the full registry. modulePath scopes the rules
// that distinguish module-local packages from the rest of the world
// (errcheck-lite).
func DefaultRules(modulePath string) []*Rule {
	return []*Rule{
		NoRand(),
		NoWallClock(),
		MapOrder(),
		MutexCopy(),
		SeedFlow(),
		ErrCheckLite(modulePath),
		DocComment(),
		LockHeld(),
		LockOrder(),
		GoroLeak(),
		ChanOwnership(),
	}
}

// Runner applies a rule set to packages, honoring exemptions and
// //lint:ignore suppressions.
type Runner struct {
	Rules []*Rule
	// ModuleRoot, when set, trims absolute file names in findings and
	// exemption checks down to module-relative paths.
	ModuleRoot string
}

// relFile maps an absolute source path to a module-relative one (with
// forward slashes); already-relative synthetic fixture names pass
// through unchanged.
func (r *Runner) relFile(filename string) string {
	if r.ModuleRoot != "" && filepath.IsAbs(filename) {
		if rel, err := filepath.Rel(r.ModuleRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}

// Check runs every rule over every file of the given packages and
// returns the surviving findings in file/line order.
func (r *Runner) Check(pkgs ...*Package) []Finding {
	findings, _ := r.Run(pkgs...)
	return findings
}

// Run is Check plus a stale-suppression audit: the second return value
// lists //lint:ignore directives that suppressed nothing during this
// run — either the code they excused is gone, or the named rule no
// longer fires there. Stale directives are reported under the
// "lint-stale" pseudo-rule, which dhtlint reports as findings.
// A directive is only meaningfully audited when the rules it names
// actually ran, so the audit should be driven with the full registry.
func (r *Runner) Run(pkgs ...*Package) (findings, stale []Finding) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			rel := r.relFile(pkg.Fset.Position(file.Package).Filename)
			isTest := strings.HasSuffix(rel, "_test.go")
			ig, malformed := parseIgnores(pkg.Fset, file)
			for _, f := range malformed {
				f.Pos.Filename = r.relFile(f.Pos.Filename)
				findings = append(findings, f)
			}
			for _, rule := range r.Rules {
				if rule.Skip != nil && rule.Skip(rel, isTest) {
					continue
				}
				rule.Check(pkg, file, func(node ast.Node, format string, args ...any) {
					pos := pkg.Fset.Position(node.Pos())
					if ig.suppressed(rule.Name, pos.Line) {
						return
					}
					pos.Filename = r.relFile(pos.Filename)
					findings = append(findings, Finding{Pos: pos, Rule: rule.Name, Message: fmt.Sprintf(format, args...)})
				})
			}
			for _, d := range ig.directives {
				if d.used {
					continue
				}
				pos := d.pos
				pos.Filename = r.relFile(pos.Filename)
				stale = append(stale, Finding{
					Pos:     pos,
					Rule:    "lint-stale",
					Message: fmt.Sprintf("//lint:ignore %s suppresses nothing — the finding it excused is gone; remove the directive", strings.Join(d.rules, ",")),
				})
			}
		}
	}
	sortFindings(findings)
	sortFindings(stale)
	return findings, stale
}

// sortFindings orders findings by file, line, column, then rule.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// ignoreDirective is one parsed //lint:ignore comment, with a usage mark
// for the stale-suppression audit.
type ignoreDirective struct {
	pos   token.Position
	rules []string
	used  bool
}

// ignoreSet indexes a file's directives by source line.
type ignoreSet struct {
	byLine     map[int][]*ignoreDirective
	directives []*ignoreDirective // parse order, for deterministic stale reports
}

// suppressed reports whether rule is ignored at line, marking the
// matching directive as used: a directive applies to its own line
// (trailing comment) and to the next line (comment above the statement).
func (ig *ignoreSet) suppressed(rule string, line int) bool {
	for _, l := range [2]int{line, line - 1} {
		for _, d := range ig.byLine[l] {
			for _, name := range d.rules {
				if name == rule || name == "all" {
					d.used = true
					return true
				}
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// parseIgnores scans a file's comments for //lint:ignore directives.
// Malformed directives (missing rule list or missing reason) are
// returned as findings so suppressions can never silently rot.
func parseIgnores(fset *token.FileSet, file *ast.File) (*ignoreSet, []Finding) {
	ig := &ignoreSet{byLine: make(map[int][]*ignoreDirective)}
	var malformed []Finding
	for _, group := range file.Comments {
		for _, c := range group.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			fields := strings.Fields(rest)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 {
				malformed = append(malformed, Finding{
					Pos:     pos,
					Rule:    "lint-directive",
					Message: "malformed //lint:ignore: want \"//lint:ignore <rule>[,<rule>...] <reason>\" — the reason is mandatory",
				})
				continue
			}
			d := &ignoreDirective{pos: pos, rules: strings.Split(fields[0], ",")}
			ig.byLine[pos.Line] = append(ig.byLine[pos.Line], d)
			ig.directives = append(ig.directives, d)
		}
	}
	return ig, malformed
}

// --- shared type-query helpers used by the rules ---

// importedPkgName resolves ident to the package it names in this file,
// returning the import path. Falls back to matching the file's import
// table when type information is incomplete.
func importedPkgName(pkg *Package, file *ast.File, ident *ast.Ident) (string, bool) {
	if obj := pkg.Info.Uses[ident]; obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return "", false // shadowed by a local identifier
		}
		return pn.Imported().Path(), true
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return path, true
		}
	}
	return "", false
}

// calleeFunc resolves a call expression's static callee, if any.
func calleeFunc(pkg *Package, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeFunc(pkg, f.X)
	case *ast.IndexListExpr:
		return calleeFunc(pkg, f.X)
	}
	return nil
}

// methodRecvNamed returns the named type of a method call's receiver
// (through one pointer), or nil.
func methodRecvNamed(pkg *Package, fun ast.Expr) *types.Named {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// pkgPathSuffix reports whether p's import path is path itself or ends
// with "/"+path — so "xrand" matches both "chordbalance/internal/xrand"
// and a fixture's stand-in package.
func pkgPathSuffix(p *types.Package, suffix string) bool {
	if p == nil {
		return false
	}
	return p.Path() == suffix || strings.HasSuffix(p.Path(), "/"+suffix)
}
