package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the type-based approximate call graph behind the
// interprocedural analyzers (hotpath-alloc, and the contract collection
// used by escape-check). The graph is deliberately an over-approximation:
// it would rather walk a function that never runs hot than miss one that
// does. See docs/LINT.md for the resolution rules.
//
// Functions participate through a small directive family written in the
// doc comment of a FuncDecl (or an interface method declaration):
//
//	//hot:path      the function is a hot-path root; everything reachable
//	                from it is checked by hotpath-alloc
//	//hot:cold      the function is declared cold; traversal stops here
//	                even when it is reachable from a root
//	//hot:inline    escape-check requires the compiler to report the
//	                function as inlinable
//
// plus one line directive (covers its own line and the line below):
//
//	//hot:noescape  escape-check requires no value on the covered lines
//	                to be reported as escaping/moved to the heap
const (
	hotPath     = "hot:path"
	hotCold     = "hot:cold"
	hotInline   = "hot:inline"
	hotNoescape = "hot:noescape"
)

// FuncNode is one function in the call graph: either a declared function
// or method (Obj non-nil) or a function literal (Lit non-nil).
type FuncNode struct {
	// Obj is the declared function's object, canonical across packages.
	Obj *types.Func
	// Decl is the declaration carrying Obj's body, when it is in the
	// load set.
	Decl *ast.FuncDecl
	// Lit is the literal, for closure nodes.
	Lit *ast.FuncLit
	// Pkg is the package holding the node's body; nil for functions
	// outside the load set (no body to analyze).
	Pkg *Package
	// Path, Cold, Inline record the node's //hot:* directives.
	Path, Cold, Inline bool
}

// Name renders the node for diagnostics: "(*Machine).Run" or
// "(*Machine).Run.func1" style for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		if recv := n.Obj.Signature().Recv(); recv != nil {
			t := recv.Type()
			s := ""
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				s = "*"
			}
			if named, ok := t.(*types.Named); ok {
				return fmt.Sprintf("(%s%s).%s", s, named.Obj().Name(), n.Obj.Name())
			}
		}
		return n.Obj.Name()
	}
	return "func literal"
}

// qualName renders the node with its package for cross-package messages.
func (n *FuncNode) qualName() string {
	name := n.Name()
	if n.Pkg != nil {
		return pathBase(n.Pkg.Path) + "." + name
	}
	if n.Obj != nil && n.Obj.Pkg() != nil {
		return pathBase(n.Obj.Pkg().Path()) + "." + name
	}
	return name
}

// CallGraph is the whole-program approximate call graph over a load set.
type CallGraph struct {
	// Roots are the //hot:path functions, in deterministic order.
	Roots []*FuncNode

	// byObj/byLit index every node with a body in the load set.
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// edges are resolved callees per node.
	edges map[*FuncNode][]*FuncNode

	// reach maps every node reachable from a root (without passing
	// through a //hot:cold node) to the root it was first reached from.
	reach map[*FuncNode]*FuncNode

	// noescape records //hot:noescape directive positions per package.
	noescape map[*Package][]token.Position

	// methodImpls maps an interface method (its *types.Func) to the
	// load-set methods implementing it.
	methodImpls map[*types.Func][]*FuncNode

	// bySig maps a receiver-less signature key to the address-taken
	// functions and literals carrying it (dynamic call candidates).
	bySig map[string][]*FuncNode

	// dynCalls are calls through function values, recorded during the
	// body walk and resolved against bySig only after every package's
	// candidates are registered (a call site in package A may target a
	// closure built in package B, walked later).
	dynCalls []dynCall
}

type dynCall struct {
	owner *FuncNode
	key   string
}

// BuildCallGraph indexes every function body in pkgs, resolves call
// edges, and computes hot-path reachability from the //hot:path roots.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj:       map[*types.Func]*FuncNode{},
		byLit:       map[*ast.FuncLit]*FuncNode{},
		edges:       map[*FuncNode][]*FuncNode{},
		reach:       map[*FuncNode]*FuncNode{},
		noescape:    map[*Package][]token.Position{},
		methodImpls: map[*types.Func][]*FuncNode{},
		bySig:       map[string][]*FuncNode{},
	}
	// Pass 1: nodes, directives, and the named-type universe.
	var named []*types.Named
	for _, pkg := range pkgs {
		named = append(named, g.indexPackage(pkg)...)
	}
	// Pass 2: interface-method implementations, now that every node and
	// named type is known.
	g.resolveImplements(pkgs, named)
	// Pass 3: call edges and address-taken functions.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				g.walkBody(pkg, g.byObj[obj], fd.Body)
			}
		}
	}
	// Pass 4: dynamic call edges, now that every address-taken function
	// is a registered candidate.
	for _, dc := range g.dynCalls {
		for _, cand := range g.bySig[dc.key] {
			g.addEdge(dc.owner, cand)
		}
	}
	// Pass 5: reachability.
	g.computeReach()
	return g
}

// indexPackage creates nodes for pkg's declared functions and literals,
// records //hot:* directives, and returns the package's named types.
func (g *CallGraph) indexPackage(pkg *Package) []*types.Named {
	var named []*types.Named
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	for _, f := range pkg.Files {
		// Interface method declarations may carry //hot:path too; those
		// roots are expanded to implementations in resolveImplements.
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok || it.Methods == nil {
				return true
			}
			for _, field := range it.Methods.List {
				if !hasDirective(field.Doc, hotPath) && !hasDirective(field.Comment, hotPath) {
					continue
				}
				for _, id := range field.Names {
					if m, ok := pkg.Info.Defs[id].(*types.Func); ok {
						node := &FuncNode{Obj: m, Pkg: pkg, Path: true}
						g.byObj[m] = node
						g.Roots = append(g.Roots, node)
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			node := &FuncNode{
				Obj:    obj,
				Decl:   fd,
				Pkg:    pkg,
				Path:   hasDirective(fd.Doc, hotPath),
				Cold:   hasDirective(fd.Doc, hotCold),
				Inline: hasDirective(fd.Doc, hotInline),
			}
			g.byObj[obj] = node
			if node.Path {
				g.Roots = append(g.Roots, node)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if directiveText(c) == hotNoescape {
					g.noescape[pkg] = append(g.noescape[pkg], pkg.Fset.Position(c.Pos()))
				}
			}
		}
	}
	return named
}

// resolveImplements fills methodImpls: for every exported-or-not interface
// method in the load set, the concrete load-set methods satisfying it.
func (g *CallGraph) resolveImplements(pkgs []*Package, named []*types.Named) {
	var ifaces []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, n)
			}
		}
	}
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		for _, impl := range named {
			if types.Identical(impl, iface) {
				continue
			}
			// A named type or its pointer may implement the interface.
			var recv types.Type
			switch {
			case types.Implements(impl, it):
				recv = impl
			case types.Implements(types.NewPointer(impl), it):
				recv = types.NewPointer(impl)
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(recv, true, im.Pkg(), im.Name())
				m, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if node := g.byObj[m.Origin()]; node != nil {
					g.methodImpls[im] = append(g.methodImpls[im], node)
				}
			}
		}
	}
}

// walkBody records call edges and address-taken functions inside body,
// which belongs to node (a declared function). Function literals get
// their own nodes, an edge from the enclosing function (a closure built
// on a hot path is conservatively assumed to run on it), and are
// registered as dynamic-call candidates.
func (g *CallGraph) walkBody(pkg *Package, node *FuncNode, body *ast.BlockStmt) {
	if node == nil || body == nil {
		return
	}
	// inCallPos marks expressions that are the callee of a call: a
	// function referenced there is statically called, not address-taken.
	inCallPos := map[ast.Node]bool{}
	var walk func(owner *FuncNode, n ast.Node)
	walk = func(owner *FuncNode, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				lit := g.litNode(pkg, x)
				g.addEdge(owner, lit)
				if !inCallPos[x] {
					g.addSigCandidate(pkg, x, lit)
				}
				walk(lit, x.Body)
				return false
			case *ast.CallExpr:
				fun := ast.Unparen(x.Fun)
				inCallPos[fun] = true
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					inCallPos[sel.Sel] = true
				}
				g.resolveCall(pkg, owner, x)
				// Arguments may take function addresses; keep walking.
				return true
			case *ast.Ident:
				if !inCallPos[x] {
					g.noteAddressTaken(pkg, x)
				}
			case *ast.SelectorExpr:
				// Method values (x.M used as a func value) are handled
				// via the Selections map in noteAddressTakenSel.
				if !inCallPos[x] {
					g.noteAddressTakenSel(pkg, x)
				}
			}
			return true
		})
	}
	walk(node, body)
}

// litNode returns (creating on demand) the node for a literal.
func (g *CallGraph) litNode(pkg *Package, lit *ast.FuncLit) *FuncNode {
	if n := g.byLit[lit]; n != nil {
		return n
	}
	n := &FuncNode{Lit: lit, Pkg: pkg}
	g.byLit[lit] = n
	return n
}

func (g *CallGraph) addEdge(from, to *FuncNode) {
	if from == nil || to == nil || from == to {
		return
	}
	g.edges[from] = append(g.edges[from], to)
}

// sigKey builds a receiver-less signature key used to over-approximate
// dynamic calls: any address-taken function whose parameter and result
// types match the call site's function type is a candidate callee.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sig.Params().At(i).Type().String())
	}
	b.WriteByte(')')
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteByte('(')
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sig.Results().At(i).Type().String())
	}
	b.WriteByte(')')
	return b.String()
}

func (g *CallGraph) addSigCandidate(pkg *Package, expr ast.Expr, node *FuncNode) {
	tv, ok := pkg.Info.Types[expr]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	key := sigKey(sig)
	for _, existing := range g.bySig[key] {
		if existing == node {
			return
		}
	}
	g.bySig[key] = append(g.bySig[key], node)
}

// noteAddressTaken registers a declared function referenced by name in
// non-call position as a dynamic-call candidate.
func (g *CallGraph) noteAddressTaken(pkg *Package, id *ast.Ident) {
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	node := g.byObj[obj.Origin()]
	if node == nil || node.Decl == nil {
		return
	}
	g.addSigCandidate(pkg, id, node)
}

// noteAddressTakenSel registers method values (receiver-bound method
// expressions used as func values).
func (g *CallGraph) noteAddressTakenSel(pkg *Package, sel *ast.SelectorExpr) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	m, ok := s.Obj().(*types.Func)
	if !ok {
		return
	}
	node := g.byObj[m.Origin()]
	if node == nil || node.Decl == nil {
		return
	}
	g.addSigCandidate(pkg, sel, node)
}

// resolveCall adds edges for one call expression.
func (g *CallGraph) resolveCall(pkg *Package, owner *FuncNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Immediately invoked literal: the FuncLit case of walkBody already
	// added the enclosing edge; nothing more to do here.
	if _, ok := fun.(*ast.FuncLit); ok {
		return
	}

	// Conversions (T(x)) type-check as calls of a type; skip them.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func: // static call of a package-level function
			g.addEdge(owner, g.byObj[obj.Origin()])
			return
		case *types.Builtin, *types.TypeName, nil:
			return
		}
		// A variable of function type: dynamic call.
		g.resolveDynamic(pkg, owner, fun)
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[f]; ok {
			m, ok := s.Obj().(*types.Func)
			if !ok {
				// Function-valued field: dynamic call.
				g.resolveDynamic(pkg, owner, fun)
				return
			}
			recv := s.Recv()
			if types.IsInterface(recv) {
				// Interface call: edges to every load-set implementation
				// of the method.
				for _, impl := range g.methodImpls[m.Origin()] {
					g.addEdge(owner, impl)
				}
				// The interface method's own node (if it carries
				// directives) links to the implementations too.
				if in := g.byObj[m.Origin()]; in != nil {
					g.addEdge(owner, in)
				}
				return
			}
			g.addEdge(owner, g.byObj[m.Origin()])
			return
		}
		// Qualified call pkg.Fn or method expression.
		if obj, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			g.addEdge(owner, g.byObj[obj.Origin()])
			return
		}
		g.resolveDynamic(pkg, owner, fun)
	default:
		// Call of an arbitrary expression (index into a func slice,
		// call returning a func, ...): dynamic.
		g.resolveDynamic(pkg, owner, fun)
	}
}

// resolveDynamic over-approximates a call through a function value:
// every address-taken function or literal with an identical signature is
// a candidate callee. Resolution is deferred until all packages are
// walked; see dynCalls.
func (g *CallGraph) resolveDynamic(pkg *Package, owner *FuncNode, fun ast.Expr) {
	tv, ok := pkg.Info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	g.dynCalls = append(g.dynCalls, dynCall{owner: owner, key: sigKey(sig)})
}

// computeReach walks the graph from the roots, stopping at //hot:cold
// nodes. Dynamic candidates are registered during the same build, so the
// walk runs after every package's bodies have been processed.
func (g *CallGraph) computeReach() {
	// Interface-method root nodes expand to their implementations.
	queue := make([]*FuncNode, 0, len(g.Roots))
	seed := func(n *FuncNode) {
		if n.Cold || g.reach[n] != nil {
			return
		}
		g.reach[n] = n
		queue = append(queue, n)
	}
	for _, r := range g.Roots {
		seed(r)
		if r.Obj != nil && r.Decl == nil {
			for _, impl := range g.methodImpls[r.Obj] {
				seed(impl)
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		root := g.reach[n]
		if n.Obj != nil && n.Decl == nil && !n.Path {
			// Interface method without a body used as a hop: expand.
			for _, impl := range g.methodImpls[n.Obj] {
				if impl.Cold || g.reach[impl] != nil {
					continue
				}
				g.reach[impl] = root
				queue = append(queue, impl)
			}
			continue
		}
		for _, callee := range g.edges[n] {
			if callee.Cold || g.reach[callee] != nil {
				continue
			}
			g.reach[callee] = root
			queue = append(queue, callee)
		}
	}
}

// HotRoot returns the root a node was reached from, or nil when the node
// is not on any hot path.
func (g *CallGraph) HotRoot(n *FuncNode) *FuncNode { return g.reach[n] }

// NodeFor returns the graph node for a declared function object.
func (g *CallGraph) NodeFor(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// LitFor returns the graph node for a function literal.
func (g *CallGraph) LitFor(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// InlineContracts returns pkg's //hot:inline functions.
func (g *CallGraph) InlineContracts(pkg *Package) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.byObj {
		if n.Inline && n.Pkg == pkg && n.Decl != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// NoescapeContracts returns pkg's //hot:noescape directive positions.
func (g *CallGraph) NoescapeContracts(pkg *Package) []token.Position {
	return g.noescape[pkg]
}

// hasDirective reports whether the comment group contains the directive.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directiveText(c) == name {
			return true
		}
	}
	return false
}

// directiveText returns a comment's text when it is a machine directive
// ("//hot:..." with no space), or "".
func directiveText(c *ast.Comment) string {
	text := strings.TrimSuffix(strings.TrimPrefix(c.Text, "//"), "\n")
	if !strings.HasPrefix(text, "hot:") {
		return ""
	}
	return strings.TrimSpace(text)
}
