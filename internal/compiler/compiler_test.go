package compiler

import (
	"strings"
	"testing"

	"prodigy/internal/dig"
)

// simpleKernel builds the Fig. 7 example: for i { dst[i] = b[a[i]] }.
func simpleKernel() *Func {
	a := NewAlloc("a", 0x1000, 1000, 4, 0)
	b := NewAlloc("b", 0x10000, 1000, 4, 1)
	dst := NewAlloc("dst", 0x20000, 1000, 4, 2)
	i := NewVar("i")
	t := NewLoad(a.Arr, V(i), "t")
	u := NewLoad(b.Arr, V(t.Dst), "u")
	return &Func{Name: "kernel", Body: []Stmt{
		a, b, dst,
		&Loop{Var: i, Body: []Stmt{t, u, &Store{Arr: dst.Arr, Idx: V(i)}}},
	}}
}

func TestFig7SingleValuedDetection(t *testing.T) {
	regs := Analyze(simpleKernel())
	var nodes, trav, trig int
	for _, r := range regs {
		switch r.Kind {
		case "registerNode":
			nodes++
		case "registerTravEdge":
			trav++
			if r.SrcAddr != 0x1000 || r.DstAddr != 0x10000 || r.EdgeType != dig.SingleValued {
				t.Errorf("wrong edge: %v", r)
			}
		case "registerTrigEdge":
			trig++
			if r.SrcAddr != 0x1000 {
				t.Errorf("trigger on %#x, want a", r.SrcAddr)
			}
		}
	}
	if nodes != 3 || trav != 1 || trig != 1 {
		t.Fatalf("nodes=%d trav=%d trig=%d, want 3/1/1", nodes, trav, trig)
	}
}

func TestFig5dRangedDetection(t *testing.T) {
	// for i { for j = a[i] .. a[i+1] { tmp += b[j] } }
	a := NewAlloc("a", 0x1000, 100, 4, 0)
	b := NewAlloc("b", 0x10000, 1000, 4, 1)
	i := NewVar("i")
	lo := NewLoad(a.Arr, V(i), "lo")
	hi := NewLoad(a.Arr, Expr{Var: i, Off: 1}, "hi")
	j := NewVar("j")
	bb := NewLoad(b.Arr, V(j), "bb")
	f := &Func{Name: "ranged", Body: []Stmt{
		a, b,
		&Loop{Var: i, Body: []Stmt{
			lo, hi,
			&Loop{Var: j, Lower: lo, Upper: hi, Body: []Stmt{bb}},
		}},
	}}
	d, err := GenerateDIG(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Edges) != 1 || d.Edges[0].Type != dig.Ranged {
		t.Fatalf("edges = %v, want one ranged", d.Edges)
	}
	if len(d.TriggerNodes()) != 1 || d.TriggerNodes()[0] != 0 {
		t.Fatalf("trigger = %v, want node 0", d.TriggerNodes())
	}
}

func TestRangedRequiresMatchingBounds(t *testing.T) {
	// Bounds from different arrays, or offsets other than +1, must not
	// produce ranged edges.
	a := NewAlloc("a", 0x1000, 100, 4, 0)
	a2 := NewAlloc("a2", 0x8000, 100, 4, 1)
	b := NewAlloc("b", 0x10000, 1000, 4, 2)
	i := NewVar("i")
	j := NewVar("j")

	lo1 := NewLoad(a.Arr, V(i), "lo")
	hi1 := NewLoad(a2.Arr, Expr{Var: i, Off: 1}, "hi") // different array
	body1 := NewLoad(b.Arr, V(j), "x")
	f1 := &Func{Body: []Stmt{a, a2, b, &Loop{Var: i, Body: []Stmt{
		lo1, hi1, &Loop{Var: j, Lower: lo1, Upper: hi1, Body: []Stmt{body1}},
	}}}}
	if regs := ranged(f1); len(regs) != 0 {
		t.Errorf("cross-array bounds produced %v", regs)
	}

	lo2 := NewLoad(a.Arr, V(i), "lo")
	hi2 := NewLoad(a.Arr, Expr{Var: i, Off: 2}, "hi") // +2, not +1
	body2 := NewLoad(b.Arr, V(j), "x")
	f2 := &Func{Body: []Stmt{a, b, &Loop{Var: i, Body: []Stmt{
		lo2, hi2, &Loop{Var: j, Lower: lo2, Upper: hi2, Body: []Stmt{body2}},
	}}}}
	if regs := ranged(f2); len(regs) != 0 {
		t.Errorf("+2 bounds produced %v", regs)
	}
}

func TestLoopVarIndexIsNotSingleValued(t *testing.T) {
	// b[i] with i a loop variable is a plain streaming access.
	b := NewAlloc("b", 0x10000, 1000, 4, 0)
	i := NewVar("i")
	ld := NewLoad(b.Arr, V(i), "x")
	f := &Func{Body: []Stmt{b, &Loop{Var: i, Body: []Stmt{ld}}}}
	if regs := singleValued(f); len(regs) != 0 {
		t.Errorf("streaming access produced %v", regs)
	}
}

func TestSelfEdgeSuppressed(t *testing.T) {
	// a[a[i]] must not create a self traversal edge (the DIG self-edge is
	// reserved for triggers).
	a := NewAlloc("a", 0x1000, 100, 4, 0)
	i := NewVar("i")
	t1 := NewLoad(a.Arr, V(i), "t")
	t2 := NewLoad(a.Arr, V(t1.Dst), "u")
	f := &Func{Body: []Stmt{a, &Loop{Var: i, Body: []Stmt{t1, t2}}}}
	if regs := singleValued(f); len(regs) != 0 {
		t.Errorf("self edge produced %v", regs)
	}
}

func TestRegistrationStrings(t *testing.T) {
	regs := Analyze(simpleKernel())
	joined := ""
	for _, r := range regs {
		joined += r.String() + "\n"
	}
	for _, want := range []string{"registerNode", "registerTravEdge", "registerTrigEdge", "w0"} {
		if !strings.Contains(joined, want) {
			t.Errorf("output missing %q:\n%s", want, joined)
		}
	}
}
