package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture type-checks one testdata/src package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	cfg, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	pkgs, err := Load(cfg, []string{"internal/lint/testdata/src/" + name})
	if err != nil {
		t.Fatalf("Load %s: %v", name, err)
	}
	return pkgs[0]
}

type diagKey struct {
	line     int
	analyzer string
}

// wantMarkers collects the fixture's `// want <analyzer>...` comments as
// the expected diagnostic multiset.
func wantMarkers(pkg *Package) map[diagKey]int {
	want := map[diagKey]int{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, a := range strings.Fields(rest) {
					want[diagKey{line, a}]++
				}
			}
		}
	}
	return want
}

func checkGolden(t *testing.T, pkg *Package, analyzers []Analyzer, want map[diagKey]int) {
	t.Helper()
	checkDiags(t, Run([]*Package{pkg}, analyzers), want)
}

// checkDiags compares a diagnostic list against the want-marker multiset.
func checkDiags(t *testing.T, diags []Diagnostic, want map[diagKey]int) {
	t.Helper()
	got := map[diagKey]int{}
	for _, d := range diags {
		got[diagKey{d.Pos.Line, d.Analyzer}]++
		if !strings.Contains(d.Pos.Filename, "testdata") {
			t.Errorf("diagnostic outside fixture: %s", d)
		}
	}
	keys := map[diagKey]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var sorted []diagKey
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].line != sorted[j].line {
			return sorted[i].line < sorted[j].line
		}
		return sorted[i].analyzer < sorted[j].analyzer
	})
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("line %d [%s]: got %d diagnostic(s), want %d", k.line, k.analyzer, got[k], want[k])
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	pkg := loadFixture(t, "sim")
	want := wantMarkers(pkg)
	// The reason-less `//lint:allow nofix` directive is reported by the
	// "lint" pseudo-analyzer at its own line; a want marker cannot share
	// that line, so locate it in the source directly.
	data, err := os.ReadFile(filepath.Join(pkg.Dir, "sim.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "//lint:allow nofix") {
			want[diagKey{i + 1, "lint"}]++
			found = true
		}
	}
	if !found {
		t.Fatal("fixture lost its reason-less directive")
	}
	checkGolden(t, pkg, []Analyzer{Determinism{}}, want)
}

func TestErrCheckGolden(t *testing.T) {
	pkg := loadFixture(t, "errcheck")
	checkGolden(t, pkg, []Analyzer{ErrCheck{}}, wantMarkers(pkg))
}

func TestDIGCheckGolden(t *testing.T) {
	pkg := loadFixture(t, "digdrift")
	dc := DIGCheck{Match: func(path string) bool { return strings.HasSuffix(path, "digdrift") }}
	checkGolden(t, pkg, []Analyzer{dc}, wantMarkers(pkg))
}

// TestHotPathAllocGolden exercises the call-graph analyzer end to end:
// roots via function and interface-method directives, static and dynamic
// edges, the //hot:cold stop, and allow suppression.
func TestHotPathAllocGolden(t *testing.T) {
	pkg := loadFixture(t, "hotpath")
	h := &HotPathAlloc{Scope: func(path string) bool { return strings.HasSuffix(path, "hotpath") }}
	checkGolden(t, pkg, []Analyzer{h}, wantMarkers(pkg))
}

// TestEscapeCheckGolden runs the real compiler against the escape
// fixture's deliberately broken //hot:inline and //hot:noescape
// contracts (and its deliberately sound ones).
func TestEscapeCheckGolden(t *testing.T) {
	cfg, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	pkg := loadFixture(t, "escape")
	diags, err := EscapeCheck(cfg, []*Package{pkg}, nil)
	if err != nil {
		t.Fatalf("EscapeCheck: %v", err)
	}
	checkDiags(t, diags, wantMarkers(pkg))
}

// TestUnusedAllow pins the stale-directive finding: reported only when
// every analyzer the directive names actually ran, and only when the
// run opts in.
func TestUnusedAllow(t *testing.T) {
	pkg := loadFixture(t, "allowstale")
	staleLine := 0
	data, err := os.ReadFile(filepath.Join(pkg.Dir, "allowstale.go"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "stale survivor") {
			staleLine = i + 1
		}
	}
	if staleLine == 0 {
		t.Fatal("fixture lost its stale directive")
	}

	diags := RunAll([]*Package{pkg}, RunConfig{Analyzers: []Analyzer{ErrCheck{}}, ReportUnused: true})
	if len(diags) != 1 || diags[0].Analyzer != "unused-allow" || diags[0].Pos.Line != staleLine {
		t.Errorf("ReportUnused run = %v, want one unused-allow at line %d", diags, staleLine)
	}

	// Without the opt-in the stale directive is silent.
	if diags := Run([]*Package{pkg}, []Analyzer{ErrCheck{}}); len(diags) != 0 {
		t.Errorf("default run = %v, want none", diags)
	}

	// If errcheck did not run, its directives cannot be judged stale.
	diags = RunAll([]*Package{pkg}, RunConfig{Analyzers: []Analyzer{Determinism{}}, ReportUnused: true})
	if len(diags) != 0 {
		t.Errorf("partial run = %v, want none", diags)
	}
}

// TestDeterminismScope pins the default scoping: wall-clock checks cover
// internal packages only, map-range checks only sim-critical basenames.
func TestDeterminismScope(t *testing.T) {
	d := Determinism{}
	pkg := loadFixture(t, "sim")
	// Same syntax, non-critical path: the map range must not be flagged,
	// the wall-clock uses must (still an internal package).
	neither := Determinism{
		WallClock: func(string) bool { return false },
		MapRange:  func(string) bool { return false },
	}
	if n := len(Run([]*Package{pkg}, []Analyzer{neither})) - 1; n != 0 {
		// The reason-less directive diagnostic is scope-independent.
		t.Errorf("out-of-scope package still yields %d determinism diagnostics", n)
	}
	if len(Run([]*Package{pkg}, []Analyzer{d})) < 4 {
		t.Error("default scope missed the seeded violations")
	}
}

// TestExpandPatterns checks pattern expansion skips testdata and hidden
// directories.
func TestExpandPatterns(t *testing.T) {
	cfg, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(cfg.Root, []string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || filepath.Base(dirs[0]) != "lint" {
		t.Errorf("ExpandPatterns = %v, want just the lint package dir", dirs)
	}
	one, err := ExpandPatterns(cfg.Root, []string{"./internal/lint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Errorf("single-dir pattern = %v", one)
	}
}

// TestDiagnosticString pins the file:line:col rendering the Makefile and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "errcheck")
	diags := Run([]*Package{pkg}, []Analyzer{ErrCheck{}})
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "errcheck.go:") || !strings.Contains(s, "[errcheck]") {
		t.Errorf("unexpected rendering %q", s)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename == b.Filename && (a.Line > b.Line || (a.Line == b.Line && a.Column > b.Column)) {
			t.Errorf("diagnostics out of order: %s before %s", fmt.Sprint(a), fmt.Sprint(b))
		}
	}
}
