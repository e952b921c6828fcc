// Package frontend is the compiler pass's source-language frontend: it
// lifts the real Go loop nests of the workload kernels in
// internal/workloads into the compiler's IR (the "unmodified application
// source" entering Fig. 7's analysis path) and statically extracts each
// kernel's hand-written dig.Builder registrations, so the Fig. 8 analyses
// can cross-check the two.
//
// The lifter does not interpret arbitrary Go. It keys on the workload
// idiom: arrays are memspace allocations (sp.AllocU32("name", n) or an
// allocation helper like allocCSR), every modeled memory access is
// mirrored by a tg.Load/tg.Store/tg.Atomic call carrying an X.Addr(idx)
// operand, and `v := X.Data[idx]` assignments name the value a load
// produced. That idiom is exactly the information the paper's LLVM pass
// reads out of allocation calls, GEPs, and loop bounds — see docs/LINT.md
// for the full mapping.
package frontend

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"prodigy/internal/compiler"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
)

// allocSizes maps memspace allocation method names to element sizes.
var allocSizes = map[string]int{
	"AllocU32": 4,
	"AllocF32": 4,
	"AllocU64": 8,
	"AllocF64": 8,
}

// Array is one memspace allocation performed by a build function.
type Array struct {
	// Name is the region name (the allocation call's first argument).
	Name string
	// VarName is the local variable the allocation is bound to.
	VarName string
	// ElemSize is the element size in bytes, from the allocation method.
	ElemSize int
	// Pos is the allocation site.
	Pos token.Pos
}

// Node is one RegisterNode call of the hand-written annotation.
type Node struct {
	Name     string
	ID       int
	ElemSize int
	Pos      token.Pos
}

// EdgeKey identifies a traversal edge symbolically, by region names and
// weight. Hand registration and compiler extraction are compared on this
// key: base addresses are runtime values, region names are not.
type EdgeKey struct {
	Src, Dst string
	Type     dig.EdgeType
}

func (e EdgeKey) String() string {
	return fmt.Sprintf("%s -%s-> %s", e.Src, e.Type, e.Dst)
}

// Trigger is one RegisterTrigEdge call.
type Trigger struct {
	Name string
	Pos  token.Pos
}

// Registered summarizes a kernel's hand-written dig.Builder calls.
type Registered struct {
	Nodes    []Node
	Edges    []EdgeKey
	EdgePos  map[EdgeKey]token.Pos
	Triggers []Trigger
}

// Extracted summarizes the DIG the Fig. 8 analyses derive from the lifted
// kernel IR.
type Extracted struct {
	Edges    []EdgeKey
	Triggers []string
}

// Drift is one disagreement between the hand-written registration and the
// compiler-extracted DIG (or a kernel shape the frontend cannot handle).
type Drift struct {
	Pos token.Pos
	Msg string
}

// Kernel is one workload kernel discovered in the workloads package: a
// build function containing a run closure (one parameter of type
// *trace.Gen).
type Kernel struct {
	// Algo is the workload name ("bfs", "pr", ...), resolved from the
	// Workload composite literal the build function returns.
	Algo string
	// FuncName is the build function's name.
	FuncName string
	// Pos is the build function's position, RunPos the run closure's.
	Pos    token.Pos
	RunPos token.Pos
	// Fset resolves the token positions in this kernel.
	Fset *token.FileSet

	Arrays     []Array
	Registered Registered
	Extracted  Extracted

	// AllowedDrift is set when the build function's doc comment carries a
	// `//lint:allow dig-drift <reason>` directive — the annotation
	// intentionally refines the compiler-derived DIG (bc keeps 4 of its 8
	// derivable edges; Section VI-E).
	AllowedDrift bool
	AllowReason  string

	arrays   map[string]*Array // by local variable name
	runLit   *ast.FuncLit
	closures map[string]*ast.FuncLit
	pre      []Drift // extraction-time problems
}

// ExtractDir parses the non-test Go files of one directory and extracts
// its kernels.
func ExtractDir(dir string) ([]*Kernel, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return ExtractPackage(fset, files), nil
}

// ExtractPackage extracts every kernel of an already-parsed package. A
// kernel is any top-level function containing a function literal whose
// single parameter is a *trace.Gen (the run closure). Problems with one
// kernel's shape are reported through its Drift, never as an error.
func ExtractPackage(fset *token.FileSet, files []*ast.File) []*Kernel {
	decls := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				decls[fd.Name.Name] = fd
			}
		}
	}
	var kernels []*Kernel
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			run := findRunClosure(fd)
			if run == nil {
				continue
			}
			kernels = append(kernels, extractKernel(fset, fd, run, decls, files))
		}
	}
	sort.Slice(kernels, func(i, j int) bool { return kernels[i].Algo < kernels[j].Algo })
	return kernels
}

// findRunClosure returns the kernel's run closure: a top-level-nested
// FuncLit with exactly one parameter of type *<pkg>.Gen. Helper closures
// (sweepRow, verify, work estimators) have different signatures.
func findRunClosure(fd *ast.FuncDecl) *ast.FuncLit {
	var run *ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok || run != nil {
			return run == nil
		}
		params := fl.Type.Params
		if params == nil || len(params.List) != 1 || len(params.List[0].Names) != 1 {
			return true
		}
		star, ok := params.List[0].Type.(*ast.StarExpr)
		if !ok {
			return true
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Gen" {
			return true
		}
		run = fl
		return false
	})
	return run
}

func extractKernel(fset *token.FileSet, fd *ast.FuncDecl, run *ast.FuncLit, decls map[string]*ast.FuncDecl, files []*ast.File) *Kernel {
	k := &Kernel{
		FuncName: fd.Name.Name,
		Pos:      fd.Pos(),
		RunPos:   run.Pos(),
		Fset:     fset,
		arrays:   map[string]*Array{},
		runLit:   run,
		closures: map[string]*ast.FuncLit{},
	}
	k.Registered.EdgePos = map[EdgeKey]token.Pos{}
	k.AllowedDrift, k.AllowReason = allowDigDrift(fd)
	k.collectArraysAndClosures(fd, decls)
	k.collectRegistrations(fd)
	k.Algo = resolveAlgo(fd, files)
	k.analyze()
	return k
}

// collectArraysAndClosures scans the build function body (closures
// excluded — allocations and helper closures are declared at build scope)
// for memspace allocations, allocation-helper calls, and named closures.
func (k *Kernel) collectArraysAndClosures(fd *ast.FuncDecl, decls map[string]*ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			return true
		}
		// name := func(...){...} declares an inlinable helper closure.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if fl, ok := as.Rhs[0].(*ast.FuncLit); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					k.closures[id.Name] = fl
				}
				return false
			}
		}
		// offsets, edges := allocCSR(sp, g): a helper returning allocations.
		if len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					if helper := decls[id.Name]; helper != nil {
						if arrs := helperAllocs(helper); len(arrs) == len(as.Lhs) {
							for j, a := range arrs {
								if lhs, ok := as.Lhs[j].(*ast.Ident); ok && lhs.Name != "_" {
									a.VarName = lhs.Name
									a.Pos = call.Pos()
									k.addArray(a)
								}
							}
							return true
						}
					}
				}
			}
		}
		// X := sp.AllocU32("name", n) and friends.
		if len(as.Lhs) == len(as.Rhs) {
			for j := range as.Rhs {
				a, ok := allocCall(as.Rhs[j])
				if !ok {
					continue
				}
				lhs, ok := as.Lhs[j].(*ast.Ident)
				if !ok || lhs.Name == "_" {
					continue
				}
				a.VarName = lhs.Name
				k.addArray(a)
			}
		}
		return true
	})
}

func (k *Kernel) addArray(a Array) {
	k.Arrays = append(k.Arrays, a)
	k.arrays[a.VarName] = &k.Arrays[len(k.Arrays)-1]
}

// allocCall matches sp.AllocXXX("name", n) and returns the array it
// allocates.
func allocCall(e ast.Expr) (Array, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return Array{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Array{}, false
	}
	size, ok := allocSizes[sel.Sel.Name]
	if !ok || len(call.Args) < 1 {
		return Array{}, false
	}
	name, ok := stringLit(call.Args[0])
	if !ok {
		return Array{}, false
	}
	return Array{Name: name, ElemSize: size, Pos: call.Pos()}, true
}

// helperAllocs recognizes allocation-helper functions (allocCSR): every
// value the helper returns must be an allocation it performed. Returns nil
// when the function is not an allocation helper.
func helperAllocs(fd *ast.FuncDecl) []Array {
	if fd.Body == nil || fd.Type.Results == nil {
		return nil
	}
	byVar := map[string]Array{}
	var ret []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for j := range st.Rhs {
				if a, ok := allocCall(st.Rhs[j]); ok {
					if id, ok := st.Lhs[j].(*ast.Ident); ok {
						a.VarName = id.Name
						byVar[id.Name] = a
					}
				}
			}
		case *ast.ReturnStmt:
			ret = ret[:0]
			if len(st.Results) == 0 {
				// Bare return: named results.
				for _, f := range fd.Type.Results.List {
					for _, id := range f.Names {
						ret = append(ret, id.Name)
					}
				}
				return true
			}
			for _, r := range st.Results {
				if id, ok := r.(*ast.Ident); ok {
					ret = append(ret, id.Name)
				} else {
					ret = append(ret, "")
				}
			}
		}
		return true
	})
	var out []Array
	for _, name := range ret {
		a, ok := byVar[name]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// collectRegistrations scans the build function for dig.Builder calls.
func (k *Kernel) collectRegistrations(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "RegisterNode":
			k.registerNode(call)
		case "RegisterTravEdge":
			k.registerTravEdge(call)
		case "RegisterTrigEdge":
			k.registerTrigEdge(call)
		}
		return true
	})
}

func (k *Kernel) drift(pos token.Pos, format string, args ...any) {
	k.pre = append(k.pre, Drift{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// baseAddrArray resolves an X.BaseAddr argument to the allocated array X.
func (k *Kernel) baseAddrArray(e ast.Expr, call *ast.CallExpr, what string) *Array {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "BaseAddr" {
		k.drift(call.Pos(), "%s argument is not an <array>.BaseAddr expression", what)
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		k.drift(call.Pos(), "%s argument is not a plain array variable", what)
		return nil
	}
	a := k.arrays[id.Name]
	if a == nil {
		k.drift(call.Pos(), "%s refers to %q, which is not a memspace allocation of this kernel", what, id.Name)
	}
	return a
}

func (k *Kernel) registerNode(call *ast.CallExpr) {
	if len(call.Args) != 5 {
		k.drift(call.Pos(), "RegisterNode call does not have 5 arguments")
		return
	}
	name, ok := stringLit(call.Args[0])
	if !ok {
		k.drift(call.Pos(), "RegisterNode name is not a string literal")
		return
	}
	a := k.baseAddrArray(call.Args[1], call, "RegisterNode base")
	if a == nil {
		return
	}
	if a.Name != name {
		k.drift(call.Pos(), "RegisterNode names the node %q but its base address is array %q (var %s)", name, a.Name, a.VarName)
	}
	elemSize, ok := intLitExpr(call.Args[3])
	if !ok {
		k.drift(call.Pos(), "RegisterNode element size is not an integer literal")
		return
	}
	if int(elemSize) != a.ElemSize {
		k.drift(call.Pos(), "RegisterNode declares element size %d but %q is allocated with %d-byte elements", elemSize, a.Name, a.ElemSize)
	}
	id, ok := intLitExpr(call.Args[4])
	if !ok {
		k.drift(call.Pos(), "RegisterNode ID is not an integer literal")
		return
	}
	k.Registered.Nodes = append(k.Registered.Nodes, Node{
		Name: name, ID: int(id), ElemSize: int(elemSize), Pos: call.Pos(),
	})
}

func (k *Kernel) registerTravEdge(call *ast.CallExpr) {
	if len(call.Args) != 3 {
		k.drift(call.Pos(), "RegisterTravEdge call does not have 3 arguments")
		return
	}
	src := k.baseAddrArray(call.Args[0], call, "RegisterTravEdge source")
	dst := k.baseAddrArray(call.Args[1], call, "RegisterTravEdge destination")
	if src == nil || dst == nil {
		return
	}
	var typ dig.EdgeType
	switch edgeTypeName(call.Args[2]) {
	case "SingleValued":
		typ = dig.SingleValued
	case "Ranged":
		typ = dig.Ranged
	default:
		k.drift(call.Pos(), "RegisterTravEdge type is not dig.SingleValued or dig.Ranged")
		return
	}
	e := EdgeKey{Src: src.Name, Dst: dst.Name, Type: typ}
	k.Registered.Edges = append(k.Registered.Edges, e)
	k.Registered.EdgePos[e] = call.Pos()
}

func (k *Kernel) registerTrigEdge(call *ast.CallExpr) {
	if len(call.Args) != 2 {
		k.drift(call.Pos(), "RegisterTrigEdge call does not have 2 arguments")
		return
	}
	a := k.baseAddrArray(call.Args[0], call, "RegisterTrigEdge")
	if a == nil {
		return
	}
	k.Registered.Triggers = append(k.Registered.Triggers, Trigger{Name: a.Name, Pos: call.Pos()})
}

func edgeTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// resolveAlgo finds the workload name the build function returns: the Name
// field of its Workload composite literal, chasing one level of string
// parameter through the function's callers (buildSpMVFrom). Falls back to
// the function name minus its "build" prefix.
func resolveAlgo(fd *ast.FuncDecl, files []*ast.File) string {
	var nameExpr ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok || nameExpr != nil {
			return nameExpr == nil
		}
		if id, ok := cl.Type.(*ast.Ident); !ok || id.Name != "Workload" {
			return true
		}
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
				nameExpr = kv.Value
				return false
			}
		}
		return true
	})
	if s, ok := stringLit(nameExpr); ok {
		return s
	}
	if id, ok := nameExpr.(*ast.Ident); ok {
		if idx := paramIndex(fd, id.Name); idx >= 0 {
			if s, ok := callerStringArg(fd.Name.Name, idx, files); ok {
				return s
			}
		}
	}
	return strings.ToLower(strings.TrimPrefix(fd.Name.Name, "build"))
}

// paramIndex returns the flattened position of a parameter name, or -1.
func paramIndex(fd *ast.FuncDecl, name string) int {
	i := 0
	for _, f := range fd.Type.Params.List {
		for _, id := range f.Names {
			if id.Name == name {
				return i
			}
			i++
		}
	}
	return -1
}

// callerStringArg finds a call to fn in the package passing a string
// literal at argument position idx.
func callerStringArg(fn string, idx int, files []*ast.File) (string, bool) {
	var out string
	var found bool
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != fn {
				return true
			}
			if idx < len(call.Args) {
				if s, ok := stringLit(call.Args[idx]); ok {
					out, found = s, true
					return false
				}
			}
			return true
		})
	}
	return out, found
}

// allowDigDrift reports whether the build function's doc comment carries a
// `//lint:allow dig-drift <reason>` directive.
func allowDigDrift(fd *ast.FuncDecl) (bool, string) {
	if fd.Doc == nil {
		return false, ""
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, "lint:allow ")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		for _, name := range strings.Split(fields[0], ",") {
			if name == "dig-drift" {
				return true, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			}
		}
	}
	return false, ""
}

// analyze lifts the kernel against a synthetic layout, one element per
// array, and runs the Fig. 8 analyses, filling k.Extracted. Only the
// arrays' distinct bases matter: edges are keyed back to region names.
func (k *Kernel) analyze() {
	if len(k.Arrays) == 0 {
		k.drift(k.Pos, "kernel has a run closure but no memspace allocations")
		return
	}
	sp := memspace.New()
	for _, a := range k.Arrays {
		if a.ElemSize == 8 {
			sp.AllocU64(a.Name, 1)
		} else {
			sp.AllocU32(a.Name, 1)
		}
	}
	byBase := map[uint64]string{}
	for _, r := range sp.Regions() {
		byBase[r.BaseAddr] = r.Name
	}
	f, err := k.LiftIR(sp)
	if err != nil {
		k.drift(k.RunPos, "cannot lift kernel loops into compiler IR: %v", err)
		return
	}
	for _, r := range compiler.Analyze(f) {
		switch r.Kind {
		case "registerTravEdge":
			k.Extracted.Edges = append(k.Extracted.Edges, EdgeKey{
				Src: byBase[r.SrcAddr], Dst: byBase[r.DstAddr], Type: r.EdgeType,
			})
		case "registerTrigEdge":
			k.Extracted.Triggers = append(k.Extracted.Triggers, byBase[r.SrcAddr])
		}
	}
}

// LiftIR lifts the kernel's run closure into compiler IR over the array
// placements of sp, matched to the kernel's arrays by region name. Node
// IDs follow the hand registration where present.
func (k *Kernel) LiftIR(sp *memspace.Space) (*compiler.Func, error) {
	regions := map[string]*memspace.Region{}
	for _, r := range sp.Regions() {
		regions[r.Name] = r
	}
	ids := map[string]int{}
	for _, n := range k.Registered.Nodes {
		ids[n.Name] = n.ID
	}
	lf := newLifter(k.closures)
	var body []compiler.Stmt
	for i, a := range k.Arrays {
		r, ok := regions[a.Name]
		if !ok {
			return nil, fmt.Errorf("no placement for array %q", a.Name)
		}
		id, ok := ids[a.Name]
		if !ok {
			id = 100 + i // unregistered arrays get out-of-band IDs
		}
		al := compiler.NewAlloc(a.Name, r.BaseAddr, r.Len, int(r.ElemSize), id)
		lf.allocs[a.VarName] = al
		body = append(body, al)
	}
	lf.collectBindings(k.runLit)
	for _, fl := range k.closures {
		lf.collectBindings(fl)
	}
	body = append(body, lf.liftStmts(k.runLit.Body.List, &scope{
		env:   map[string]*compiler.Var{},
		binds: lf.binds[k.runLit],
	})...)
	if lf.err != nil {
		return nil, lf.err
	}
	return &compiler.Func{Name: k.Algo, Body: body}, nil
}

// Drift compares the hand-written registration against the
// compiler-extracted DIG and returns every disagreement.
func (k *Kernel) Drift() []Drift {
	out := append([]Drift(nil), k.pre...)
	nodeByName := map[string]Node{}
	idUsed := map[int]token.Pos{}
	for _, n := range k.Registered.Nodes {
		nodeByName[n.Name] = n
		if prev, dup := idUsed[n.ID]; dup {
			out = append(out, Drift{Pos: n.Pos, Msg: fmt.Sprintf(
				"node ID %d reused by %q (first used at %s)", n.ID, n.Name, k.Fset.Position(prev))})
		}
		idUsed[n.ID] = n.Pos
	}
	for _, a := range k.Arrays {
		if _, ok := nodeByName[a.Name]; !ok {
			out = append(out, Drift{Pos: a.Pos, Msg: fmt.Sprintf(
				"array %q (var %s) is allocated but never registered as a DIG node", a.Name, a.VarName)})
		}
	}
	regEdges := map[EdgeKey]bool{}
	for _, e := range k.Registered.Edges {
		regEdges[e] = true
	}
	extEdges := map[EdgeKey]bool{}
	for _, e := range k.Extracted.Edges {
		extEdges[e] = true
	}
	for _, e := range k.Extracted.Edges {
		if !regEdges[e] {
			out = append(out, Drift{Pos: k.RunPos, Msg: fmt.Sprintf(
				"compiler derives edge %s from the kernel loops, but it is not registered", e)})
		}
	}
	for _, e := range k.Registered.Edges {
		if !extEdges[e] {
			out = append(out, Drift{Pos: k.Registered.EdgePos[e], Msg: fmt.Sprintf(
				"registered edge %s is not derivable from the kernel loops", e)})
		}
	}
	regTrig := map[string]bool{}
	for _, t := range k.Registered.Triggers {
		regTrig[t.Name] = true
	}
	extTrig := map[string]bool{}
	for _, t := range k.Extracted.Triggers {
		extTrig[t] = true
	}
	for _, t := range k.Extracted.Triggers {
		if !regTrig[t] {
			out = append(out, Drift{Pos: k.RunPos, Msg: fmt.Sprintf(
				"compiler selects %q as a trigger node, but no trigger edge is registered on it", t)})
		}
	}
	for _, t := range k.Registered.Triggers {
		if !extTrig[t.Name] {
			out = append(out, Drift{Pos: t.Pos, Msg: fmt.Sprintf(
				"registered trigger on %q is not derivable from the kernel loops", t.Name)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func intLitExpr(e ast.Expr) (int64, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseInt(lit.Value, 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
