// Package compiler implements the paper's compile-time analysis and code
// generation (Section III-B2, Fig. 7/8): it analyzes a kernel's
// intermediate representation, identifies the two data-dependent
// indirection patterns, and emits the DIG registration calls that would be
// inserted into the application binary.
//
// The IR is a small structured (loop-tree) representation carrying exactly
// what the paper's LLVM passes inspect: allocations, address calculations,
// loads/stores, and loop bounds. The analyses in analyze.go are direct
// transcriptions of the Fig. 8 pseudocode.
package compiler

import "fmt"

// Var is an IR virtual register. Its definition is tracked so the passes
// can ask "is this value the result of a load from array X?".
type Var struct {
	Name string
	// def is the statement that defined this var (nil for loop variables
	// and parameters).
	def Stmt
}

// Expr is an index expression: a variable reference, possibly plus a
// constant (a[i], a[i+1] are the shapes the passes care about).
type Expr struct {
	Var *Var
	Off int64
}

// V references a variable.
func V(v *Var) Expr { return Expr{Var: v} }

// Stmt is an IR statement.
type Stmt interface{ stmt() }

// Alloc declares an array (the paper extracts registerNode information
// from allocation calls; Fig. 8a). NodeID fixes the DIG node ID the
// instrumented binary would use.
type Alloc struct {
	Arr      *Var
	Name     string
	Base     uint64
	NumElems uint64
	ElemSize int
	NodeID   int
}

// Load is dst = arr[idx].
type Load struct {
	Dst *Var
	Arr *Var
	Idx Expr
}

// Store is arr[idx] = <something> (the stored value is irrelevant to the
// analyses).
type Store struct {
	Arr *Var
	Idx Expr
}

// Loop is for v = Lower .. Upper { Body }. Bounds are either constants
// (nil BoundLoad) or loads (the ranged-indirection shape).
type Loop struct {
	Var   *Var
	Lower *Load // nil when the bound is not a load
	Upper *Load
	Body  []Stmt
}

func (*Alloc) stmt() {}
func (*Load) stmt()  {}
func (*Store) stmt() {}
func (*Loop) stmt()  {}

// Func is one kernel's IR.
type Func struct {
	Name string
	Body []Stmt
}

// builder helpers keep kernel construction terse.

// NewVar returns an undefined variable (parameter/loop var).
func NewVar(name string) *Var { return &Var{Name: name} }

// NewLoad builds a load and its destination variable.
func NewLoad(arr *Var, idx Expr, dst string) *Load {
	l := &Load{Arr: arr, Idx: idx, Dst: &Var{Name: dst}}
	l.Dst.def = l
	return l
}

// NewAlloc builds an allocation and its array variable.
func NewAlloc(name string, base, numElems uint64, elemSize, nodeID int) *Alloc {
	a := &Alloc{Name: name, Base: base, NumElems: numElems, ElemSize: elemSize, NodeID: nodeID}
	a.Arr = &Var{Name: name, def: a}
	return a
}

// walk visits every statement in the tree, loops included.
func walk(body []Stmt, f func(Stmt)) {
	for _, s := range body {
		f(s)
		if l, ok := s.(*Loop); ok {
			if l.Lower != nil {
				f(l.Lower)
			}
			if l.Upper != nil {
				f(l.Upper)
			}
			walk(l.Body, f)
		}
	}
}

// allocOf returns the allocation defining an array variable, or nil.
func allocOf(v *Var) *Alloc {
	if v == nil {
		return nil
	}
	if a, ok := v.def.(*Alloc); ok {
		return a
	}
	return nil
}

// loadOf returns the load defining a variable, or nil.
func loadOf(v *Var) *Load {
	if v == nil {
		return nil
	}
	if l, ok := v.def.(*Load); ok {
		return l
	}
	return nil
}

func (f *Func) String() string {
	return fmt.Sprintf("func %s (%d top-level statements)", f.Name, len(f.Body))
}
