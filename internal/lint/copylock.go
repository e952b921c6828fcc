package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CopyLock flags by-value copies of types that transitively contain a
// sync lock or atomic value — value receivers, value parameters, `x := *p`
// dereference copies, and range-value copies. Copying an exp.Harness, for
// one, forks its mutex state and silently desynchronizes its run
// memoization.
type CopyLock struct{}

// Name implements Analyzer.
func (CopyLock) Name() string { return "copylock" }

// lockTypes are the sync and sync/atomic types that must not be copied
// after first use.
var lockTypes = map[string]bool{
	"sync.Mutex": true, "sync.RWMutex": true, "sync.Once": true,
	"sync.WaitGroup": true, "sync.Cond": true, "sync.Map": true,
	"sync.Pool":        true,
	"sync/atomic.Bool": true, "sync/atomic.Int32": true,
	"sync/atomic.Int64": true, "sync/atomic.Uint32": true,
	"sync/atomic.Uint64": true, "sync/atomic.Uintptr": true,
	"sync/atomic.Pointer": true, "sync/atomic.Value": true,
}

// lockPath returns a dotted path to a lock inside typ ("" when typ holds
// none). Pointers are free to copy, so recursion stops at them.
func lockPath(typ types.Type, depth int) string {
	if depth > 10 {
		return ""
	}
	if named, ok := typ.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			full := obj.Pkg().Path() + "." + obj.Name()
			if lockTypes[full] {
				return obj.Name()
			}
		}
	}
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if p := lockPath(f.Type(), depth+1); p != "" {
				return f.Name() + "." + p
			}
		}
	case *types.Array:
		if p := lockPath(u.Elem(), depth+1); p != "" {
			return "[i]." + p
		}
	}
	return ""
}

func describeLock(typ types.Type) string {
	p := lockPath(typ, 0)
	if p == "" {
		return ""
	}
	return fmt.Sprintf("%s (holds %s)", typ, p)
}

// exprType resolves an expression's type, looking through the definition
// objects range clauses and short declarations create.
func exprType(pkg *Package, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Check implements Analyzer.
func (CopyLock) Check(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			tv, ok := pkg.Info.Types[f.Type]
			if !ok {
				continue
			}
			if desc := describeLock(tv.Type); desc != "" {
				report(f.Pos(), "%s passes %s by value; use a pointer", what, desc)
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				checkFieldList(x.Recv, "method receiver")
				checkFieldList(x.Type.Params, "parameter")
			case *ast.FuncLit:
				checkFieldList(x.Type.Params, "parameter")
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					star, ok := rhs.(*ast.StarExpr)
					if !ok {
						continue
					}
					tv, ok := pkg.Info.Types[star]
					if !ok {
						continue
					}
					if desc := describeLock(tv.Type); desc != "" {
						report(rhs.Pos(), "dereference copies %s by value; keep the pointer", desc)
					}
				}
			case *ast.RangeStmt:
				typ := exprType(pkg, x.Value)
				if typ == nil {
					return true
				}
				if desc := describeLock(typ); desc != "" {
					report(x.Value.Pos(), "range value copies %s by value; iterate by index", desc)
				}
			}
			return true
		})
	}
}
