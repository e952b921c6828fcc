package lint

import (
	"go/token"
	"strings"

	"prodigy/internal/compiler/frontend"
)

// DIGCheck runs the paper's compiler pass (Fig. 8) over the real kernel
// source: each workload's Go loop nest is lifted into compiler IR, the
// single-valued/ranged/trigger analyses derive a DIG, and any disagreement
// with the kernel's hand-written dig.Builder registration is reported.
// Kernels whose build function carries a `//lint:allow dig-drift <reason>`
// doc directive (bc's intentional edge pruning) are skipped.
type DIGCheck struct {
	// Match selects the packages holding workload kernels. Nil means
	// paths ending in "internal/workloads".
	Match func(pkgPath string) bool
}

// Name implements Analyzer.
func (DIGCheck) Name() string { return "dig-drift" }

// Check implements Analyzer.
func (d DIGCheck) Check(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	match := d.Match
	if match == nil {
		match = func(path string) bool { return strings.HasSuffix(path, "internal/workloads") }
	}
	if !match(pkg.Path) {
		return
	}
	for _, k := range frontend.ExtractPackage(pkg.Fset, pkg.Files) {
		if k.AllowedDrift {
			continue
		}
		for _, drift := range k.Drift() {
			report(drift.Pos, "%s: %s", k.Algo, drift.Msg)
		}
	}
}
