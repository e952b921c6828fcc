package lint

import (
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// escape-check cross-checks the //hot:inline and //hot:noescape contracts
// against the real compiler: it runs `go build -gcflags=-m=2` on every
// package carrying a contract, parses the escape/inline diagnostics, and
// reports contract violations. Unlike the syntactic analyzers this is
// ground truth — the same decisions the compiled simulator ships with —
// at the cost of shelling out to the go tool (the build cache replays
// -gcflags=-m diagnostics, so clean runs cost one cached build).

// compiler diagnostic lines: "path/file.go:line:col: message".
var escapeDiagRE = regexp.MustCompile(`^(\S+\.go):(\d+):(\d+): (.*)$`)

// EscapeCheck runs the compiler contract check over the load set.
// Diagnostics carry the "escape-check" analyzer name. A non-nil error
// means the build itself could not run, not a finding.
func EscapeCheck(cfg Config, pkgs []*Package) ([]Diagnostic, error) {
	g := BuildCallGraph(pkgs)

	// Only packages with contracts are compiled.
	var contract []*Package
	for _, pkg := range pkgs {
		if len(g.InlineContracts(pkg)) > 0 || len(g.NoescapeContracts(pkg)) > 0 {
			contract = append(contract, pkg)
		}
	}
	if len(contract) == 0 {
		return nil, nil
	}

	args := []string{"build", "-gcflags=-m=2"}
	for _, pkg := range contract {
		rel, err := filepath.Rel(cfg.Root, pkg.Dir)
		if err != nil {
			return nil, fmt.Errorf("escape-check: package %s outside module root: %v", pkg.Path, err)
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("escape-check: go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	// Index the compiler's verdicts by file and line. Files are reported
	// relative to the module root (the build's working directory).
	type lineKey struct {
		file string
		line int
	}
	canInline := map[lineKey]bool{}
	cannotInline := map[lineKey]string{}
	escapes := map[lineKey][]string{}
	for _, raw := range strings.Split(string(out), "\n") {
		m := escapeDiagRE.FindStringSubmatch(raw)
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		key := lineKey{m[1], line}
		msg := m[4]
		switch {
		case strings.HasPrefix(msg, "can inline "):
			canInline[key] = true
		case strings.HasPrefix(msg, "cannot inline "):
			cannotInline[key] = strings.TrimPrefix(msg, "cannot inline ")
		case strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap"):
			// -m=2 prints each verdict twice: a ":"-suffixed header
			// followed by flow detail, then the bare conclusion line
			// ("moved to heap: v" for variables). Keep conclusions only.
			if strings.HasSuffix(msg, ":") {
				continue
			}
			dup := false
			for _, prev := range escapes[key] {
				dup = dup || prev == msg
			}
			if !dup {
				escapes[key] = append(escapes[key], msg)
			}
		}
	}

	var diags []Diagnostic
	addDiag := func(pos token.Position, format string, a ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: "escape-check",
			Message: fmt.Sprintf(format, a...)})
	}
	relFile := func(pos token.Position) string {
		rel, err := filepath.Rel(cfg.Root, pos.Filename)
		if err != nil {
			return pos.Filename
		}
		return filepath.ToSlash(rel)
	}

	for _, pkg := range contract {
		for _, node := range g.InlineContracts(pkg) {
			pos := pkg.Fset.Position(node.Decl.Pos())
			key := lineKey{relFile(pos), pos.Line}
			if reason, bad := cannotInline[key]; bad {
				addDiag(pos, "//hot:inline %s is not inlinable: %s", node.Name(), reason)
			} else if !canInline[key] {
				addDiag(pos, "//hot:inline %s: compiler reported no inlining decision (directive on the wrong line?)", node.Name())
			}
		}
		for _, dpos := range g.NoescapeContracts(pkg) {
			file := relFile(dpos)
			// The directive covers its own line and the line below, like
			// //lint:allow.
			for _, line := range []int{dpos.Line, dpos.Line + 1} {
				for _, msg := range escapes[lineKey{file, line}] {
					p := dpos
					p.Line = line
					addDiag(p, "//hot:noescape violated: %s", msg)
				}
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}
