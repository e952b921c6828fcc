package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPackageDirs are the package basenames whose functions sit on the
// simulated hot path and carry the 0 allocs/op contract
// (docs/ARCHITECTURE.md §Performance). Findings are reported only inside
// these packages: closures in exp/obs are reachable through dynamic hook
// fields but run either off the hot path or only in opt-in configurations
// that already pay for allocation.
var hotPackageDirs = map[string]bool{
	"sim": true, "cache": true, "cpu": true, "dram": true,
	"tlb": true, "prefetch": true, "trace": true, "core": true,
}

// HotPathAlloc flags allocation sites reachable from any //hot:path root
// through the approximate call graph: escaping composite literals,
// make/new, growing append, map insert/iteration, interface boxing
// (fmt/errors calls, explicit interface conversions), capturing closures,
// and string concatenation. Intentional sites (pool refills, amortized
// growth, abort paths) carry a reasoned //lint:allow hotpath-alloc.
type HotPathAlloc struct {
	// Scope selects the packages whose findings are reported. Nil means
	// packages whose basename is a hot-path package (sim, cache, cpu,
	// dram, tlb, prefetch, trace, core).
	Scope func(pkgPath string) bool

	graph *CallGraph
}

// Name implements Analyzer.
func (*HotPathAlloc) Name() string { return "hotpath-alloc" }

// Prepare implements ProgramAnalyzer: it builds the call graph over the
// whole load set before any per-package Check runs.
func (h *HotPathAlloc) Prepare(pkgs []*Package) {
	h.graph = BuildCallGraph(pkgs)
}

// Check implements Analyzer.
func (h *HotPathAlloc) Check(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	if h.graph == nil {
		return
	}
	scope := h.Scope
	if scope == nil {
		scope = func(path string) bool { return hotPackageDirs[pathBase(path)] }
	}
	if !scope(pkg.Path) {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			node := h.graph.NodeFor(obj)
			if node == nil {
				continue
			}
			if root := h.graph.HotRoot(node); root != nil {
				h.checkBody(pkg, fd.Body, root, report)
			}
		}
		// Function literals are their own graph nodes: one defined in a
		// cold constructor but installed as a hot hook (e.g. the memory
		// callbacks sim wires into cpu.Core) is reachable even though
		// its enclosing function is not.
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			node := h.graph.LitFor(lit)
			if node == nil {
				return true
			}
			if root := h.graph.HotRoot(node); root != nil {
				h.checkBody(pkg, lit.Body, root, report)
			}
			return true
		})
	}
}

// checkBody reports the allocation sites directly inside body (nested
// literals are separate graph nodes and are checked on their own).
func (h *HotPathAlloc) checkBody(pkg *Package, body *ast.BlockStmt, root *FuncNode, report func(pos token.Pos, format string, args ...any)) {
	from := root.qualName()
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(pkg, x) {
				report(x.Pos(), "closure captures variables and allocates on the hot path from %s", from)
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "&composite literal allocates on the hot path from %s", from)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "slice literal allocates its backing array on the hot path from %s", from)
				case *types.Map:
					report(x.Pos(), "map literal allocates on the hot path from %s", from)
				}
			}
		case *ast.CallExpr:
			h.checkCall(pkg, x, from, report)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(pkg, idx) {
					report(lhs.Pos(), "map insert allocates on the hot path from %s", from)
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && isMapIndex(pkg, idx) {
				report(x.Pos(), "map insert allocates on the hot path from %s", from)
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(x.Pos(), "map iteration on the hot path from %s (random order, per-iteration cost)", from)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := pkg.Info.Types[x]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(x.Pos(), "string concatenation allocates on the hot path from %s", from)
					}
				}
			}
		}
		return true
	})
}

// checkCall flags allocating calls: make/new/append builtins, fmt/errors
// formatting (interface boxing of arguments), and explicit conversions of
// a concrete value to an interface type.
func (h *HotPathAlloc) checkCall(pkg *Package, call *ast.CallExpr, from string, report func(pos token.Pos, format string, args ...any)) {
	fun := ast.Unparen(call.Fun)

	// Explicit interface conversion boxes its operand.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := pkg.Info.Types[call.Args[0]]; ok && !types.IsInterface(atv.Type) {
				report(call.Pos(), "conversion to interface type boxes its operand on the hot path from %s", from)
			}
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates on the hot path from %s", from)
			case "new":
				report(call.Pos(), "new allocates on the hot path from %s", from)
			case "append":
				report(call.Pos(), "append may grow its backing array on the hot path from %s", from)
			}
			return
		}
	}

	if path, name, ok := stdPkgName(pkg, fun); ok {
		switch path {
		case "fmt":
			report(call.Pos(), "fmt.%s formats and boxes its arguments on the hot path from %s", name, from)
		case "errors":
			// Is/As/Unwrap inspect existing values without allocating.
			if name != "Is" && name != "As" && name != "Unwrap" {
				report(call.Pos(), "errors.%s allocates on the hot path from %s", name, from)
			}
		}
	}
}

// isMapIndex reports whether idx indexes a map.
func isMapIndex(pkg *Package, idx *ast.IndexExpr) bool {
	tv, ok := pkg.Info.Types[idx.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// capturesOuter reports whether lit references a variable declared
// outside its own body (the compiler then allocates a closure object).
func capturesOuter(pkg *Package, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables (parent scope directly under Universe)
		// are not captures.
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}
