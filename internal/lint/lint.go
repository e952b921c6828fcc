// Package lint is a stdlib-only static-analysis driver enforcing the
// simulator's invariants: determinism of sim-critical packages, no
// silently dropped errors, allocation-free hot paths (through an
// interprocedural call graph rooted at //hot:path functions), and —
// through the compiler frontend — agreement between each workload
// kernel's hand-written DIG registration and the DIG the paper's
// compiler pass derives from its loop nests. Lock copies are left to
// `go vet`'s copylocks check. See docs/LINT.md.
//
// Intentional violations are suppressed with an allow directive on the
// offending line or the line directly above it:
//
//	//lint:allow <analyzer>[,<analyzer>] <reason>
//
// A directive without a reason is itself a diagnostic, and a directive
// that no longer suppresses anything is reported as unused-allow on
// whole-tree runs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer inspects one type-checked package and reports findings.
type Analyzer interface {
	// Name is the identifier used in diagnostics and allow directives.
	Name() string
	// Check appends the analyzer's diagnostics for pkg.
	Check(pkg *Package, report func(pos token.Pos, format string, args ...any))
}

// ProgramAnalyzer is an Analyzer that needs a whole-program view (e.g.
// the hot-path call graph) before per-package checks run. Prepare is
// called once with the full load set, before any Check.
type ProgramAnalyzer interface {
	Analyzer
	Prepare(pkgs []*Package)
}

// All returns the full analyzer suite with default scoping.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		ErrCheck{},
		DIGCheck{},
		&HotPathAlloc{},
	}
}

// RunConfig configures a lint run.
type RunConfig struct {
	Analyzers []Analyzer
	// ReportUnused enables the unused-allow finding class: directives
	// that suppressed nothing. Set it only on whole-tree runs — on a
	// partial load set the call graph is incomplete and suppressions can
	// look spuriously unused.
	ReportUnused bool
}

// Run applies the analyzers to every package and returns the surviving
// diagnostics sorted by position. Findings matched by an allow directive
// for the reporting analyzer are dropped; malformed directives are
// reported under the "lint" analyzer.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	return RunAll(pkgs, RunConfig{Analyzers: analyzers})
}

// RunAll is Run with configuration.
func RunAll(pkgs []*Package, cfg RunConfig) []Diagnostic {
	for _, a := range cfg.Analyzers {
		if pa, ok := a.(ProgramAnalyzer); ok {
			pa.Prepare(pkgs)
		}
	}
	ran := map[string]bool{}
	for _, a := range cfg.Analyzers {
		ran[a.Name()] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg)
		out = append(out, bad...)
		for _, a := range cfg.Analyzers {
			name := a.Name()
			a.Check(pkg, func(pos token.Pos, format string, args ...any) {
				p := pkg.Fset.Position(pos)
				if allows.match(name, p) {
					return
				}
				out = append(out, Diagnostic{Pos: p, Analyzer: name, Message: fmt.Sprintf(format, args...)})
			})
		}
		if cfg.ReportUnused {
			out = append(out, allows.unused(ran)...)
		}
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders diagnostics by file, line, column.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos   token.Position
	names map[string]bool
	used  bool
}

// allowIndex records allow directives by file and line. A directive
// covers its own line and the line directly below it (for directives
// written as standalone comments above the offending line).
type allowIndex struct {
	byLine map[string]map[int][]*allowDirective
	all    []*allowDirective
}

func (ai *allowIndex) match(analyzer string, p token.Position) bool {
	lines := ai.byLine[p.Filename]
	if lines == nil {
		return false
	}
	matched := false
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.names[analyzer] {
				d.used = true
				matched = true
			}
		}
	}
	return matched
}

// unused returns the unused-allow diagnostics: directives whose analyzers
// all ran yet suppressed nothing. The dig-drift directive is exempt — it
// is consumed out of band by the compiler frontend (frontend.Extract
// skips kernels with an allowed drift), so it never matches here even
// when load-bearing.
func (ai *allowIndex) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ai.all {
		if d.used || d.names["dig-drift"] {
			continue
		}
		judgeable := true
		var names []string
		for name := range d.names {
			names = append(names, name)
			if !ran[name] {
				judgeable = false
			}
		}
		if !judgeable {
			continue
		}
		sort.Strings(names)
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: "unused-allow",
			Message: fmt.Sprintf("allow directive for %q suppresses nothing; remove it", strings.Join(names, ","))})
	}
	return out
}

const allowPrefix = "lint:allow"

// collectAllows scans every comment of the package for allow directives.
func collectAllows(pkg *Package) (*allowIndex, []Diagnostic) {
	idx := &allowIndex{byLine: map[string]map[int][]*allowDirective{}}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, allowPrefix)
				if !ok {
					continue
				}
				rest = strings.TrimSpace(rest)
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: "allow directive names no analyzer"})
					continue
				}
				if len(fields) == 1 {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("allow directive for %q gives no reason", fields[0])})
				}
				d := &allowDirective{pos: pos, names: map[string]bool{}}
				for _, name := range strings.Split(fields[0], ",") {
					d.names[name] = true
				}
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*allowDirective{}
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
				idx.all = append(idx.all, d)
			}
		}
	}
	return idx, bad
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// stdPkgName resolves a qualified call like time.Now: it returns the
// package path and function name when fun is a selector on an imported
// package, or ok=false.
func stdPkgName(pkg *Package, fun ast.Expr) (pkgPath, name string, ok bool) {
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
