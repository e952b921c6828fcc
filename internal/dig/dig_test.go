package dig

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// buildBFSLike constructs the Fig. 5(a) DIG: workQ -> offsetList (w0),
// offsetList -> edgeList (w1), edgeList -> visited (w0), trigger on workQ.
func buildBFSLike(t *testing.T) *DIG {
	t.Helper()
	b := NewBuilder()
	b.RegisterNode("workQ", 0x10000, 100, 4, 0)
	b.RegisterNode("offsetList", 0x20000, 101, 4, 1)
	b.RegisterNode("edgeList", 0x30000, 1000, 4, 2)
	b.RegisterNode("visited", 0x40000, 100, 4, 3)
	b.RegisterTravEdge(0x10000, 0x20000, SingleValued)
	b.RegisterTravEdge(0x20000, 0x30000, Ranged)
	b.RegisterTravEdge(0x30000, 0x40000, SingleValued)
	b.RegisterTrigEdge(0x10000, TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestBFSDIGShape(t *testing.T) {
	d := buildBFSLike(t)
	if len(d.Nodes) != 4 || len(d.Edges) != 3 {
		t.Fatalf("nodes=%d edges=%d", len(d.Nodes), len(d.Edges))
	}
	if got := d.Depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	trigs := d.TriggerNodes()
	if len(trigs) != 1 || trigs[0] != 0 {
		t.Fatalf("triggers = %v", trigs)
	}
	if !d.IsLeaf(3) {
		t.Error("visited should be a leaf")
	}
	if d.IsLeaf(0) {
		t.Error("workQ should not be a leaf")
	}
	out := d.OutEdges(1)
	if len(out) != 1 || out[0].Type != Ranged || out[0].Dst != 2 {
		t.Fatalf("offsetList out edges = %v", out)
	}
}

func TestNodeAddressMath(t *testing.T) {
	d := buildBFSLike(t)
	n := d.NodeByID(2)
	if n == nil || n.Name != "edgeList" {
		t.Fatal("node 2 missing")
	}
	if n.NumElems() != 1000 {
		t.Fatalf("NumElems = %d", n.NumElems())
	}
	if n.ElemAddr(5) != 0x30000+20 {
		t.Fatalf("ElemAddr(5) = %#x", n.ElemAddr(5))
	}
	if n.Index(0x30000+20) != 5 {
		t.Fatalf("Index = %d", n.Index(0x30000+20))
	}
	if !n.Contains(0x30000) || n.Contains(0x30000+4000) {
		t.Error("Contains bounds wrong")
	}
}

func TestNodeContainingAndCovers(t *testing.T) {
	d := buildBFSLike(t)
	if n := d.NodeContaining(0x20004); n == nil || n.ID != 1 {
		t.Fatal("address in offsetList not resolved")
	}
	if d.NodeContaining(0x90000) != nil {
		t.Fatal("unmapped address resolved")
	}
	if !d.Covers(0x40000) || d.Covers(0x5) {
		t.Error("Covers wrong")
	}
}

func TestLookaheadHeuristic(t *testing.T) {
	cases := map[int]int{1: 64, 2: 16, 3: 12, 4: 1, 7: 1}
	for depth, want := range cases {
		if got := LookaheadForDepth(depth); got != want {
			t.Errorf("LookaheadForDepth(%d) = %d, want %d", depth, got, want)
		}
	}
	d := buildBFSLike(t)
	if got := d.Lookahead(0); got != 1 { // depth 4
		t.Errorf("BFS lookahead = %d, want 1", got)
	}
	if got := d.NumSeqs(0); got != DefaultNumSeqs {
		t.Errorf("NumSeqs = %d, want %d", got, DefaultNumSeqs)
	}
}

func TestTriggerConfigOverrides(t *testing.T) {
	b := NewBuilder()
	b.RegisterNode("a", 0x1000, 10, 4, 0)
	b.RegisterNode("b", 0x2000, 10, 4, 1)
	b.RegisterTravEdge(0x1000, 0x2000, SingleValued)
	b.RegisterTrigEdge(0x1000, TriggerConfig{Lookahead: 3, NumSeqs: 7})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.Lookahead(0) != 3 || d.NumSeqs(0) != 7 {
		t.Fatalf("overrides not applied: %d %d", d.Lookahead(0), d.NumSeqs(0))
	}
}

func TestUnresolvedEdgesDropped(t *testing.T) {
	b := NewBuilder()
	b.RegisterNode("a", 0x1000, 10, 4, 0)
	b.RegisterTravEdge(0x1000, 0xdead0000, SingleValued) // dst unregistered
	b.RegisterTravEdge(0xbeef0000, 0x1000, Ranged)       // src unregistered
	b.RegisterTrigEdge(0x1000, TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Edges) != 0 {
		t.Fatalf("unresolved edges kept: %v", d.Edges)
	}
}

func TestBuildErrors(t *testing.T) {
	// No nodes.
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty build should fail")
	}
	// No trigger.
	b := NewBuilder()
	b.RegisterNode("a", 0x1000, 10, 4, 0)
	if _, err := b.Build(); err == nil {
		t.Error("build without trigger should fail")
	}
	// Duplicate IDs.
	b = NewBuilder()
	b.RegisterNode("a", 0x1000, 10, 4, 0)
	b.RegisterNode("b", 0x2000, 10, 4, 0)
	b.RegisterTrigEdge(0x1000, TriggerConfig{})
	if _, err := b.Build(); err == nil {
		t.Error("duplicate node IDs should fail")
	}
	// Overlapping ranges.
	b = NewBuilder()
	b.RegisterNode("a", 0x1000, 100, 4, 0)
	b.RegisterNode("b", 0x1100, 100, 4, 1)
	b.RegisterTrigEdge(0x1000, TriggerConfig{})
	if _, err := b.Build(); err == nil {
		t.Error("overlapping nodes should fail")
	}
	// Bad element sizes: zero, past DataSize, not a power of two.
	for _, size := range []int{0, 256, 6} {
		b = NewBuilder()
		b.RegisterNode("a", 0x1000, 10, size, 0)
		b.RegisterTrigEdge(0x1000, TriggerConfig{})
		var se *ElemSizeError
		if _, err := b.Build(); !errors.As(err, &se) || se.Size != size {
			t.Errorf("element size %d: Build error = %v, want *ElemSizeError", size, err)
		}
	}
	// Trigger type passed to RegisterTravEdge.
	b = NewBuilder()
	b.RegisterNode("a", 0x1000, 10, 4, 0)
	b.RegisterNode("b", 0x2000, 10, 4, 1)
	b.RegisterTravEdge(0x1000, 0x2000, Trigger)
	b.RegisterTrigEdge(0x1000, TriggerConfig{})
	if _, err := b.Build(); err == nil {
		t.Error("trigger-typed traversal edge should fail")
	}
}

func TestDepthWithCycle(t *testing.T) {
	// a -> b -> a cycle must not hang Depth.
	b := NewBuilder()
	b.RegisterNode("a", 0x1000, 10, 4, 0)
	b.RegisterNode("b", 0x2000, 10, 4, 1)
	b.RegisterTravEdge(0x1000, 0x2000, SingleValued)
	b.RegisterTravEdge(0x2000, 0x1000, SingleValued)
	b.RegisterTrigEdge(0x1000, TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Depth(); got != 2 {
		t.Fatalf("cyclic depth = %d, want 2", got)
	}
}

func TestStorageBudget(t *testing.T) {
	// The overhead analysis (Section VI-E): 16-entry DIG tables must cost
	// about 0.53 KB, keeping total prefetcher storage (with the 16-entry
	// PFHR file) near 0.8 KB.
	d := buildBFSLike(t)
	bits := d.StorageBits(16)
	bytes := bits / 8
	if bytes < 400 || bytes > 600 {
		t.Fatalf("DIG tables = %d bytes, want ~530 (paper: 0.53KB)", bytes)
	}
}

// Property: a DIG built from any set of disjoint arrays with a valid
// trigger always reports storage within the 16-entry hardware budget
// model, and its look-ahead is positive.
func TestQuickDIGBudget(t *testing.T) {
	f := func(sizes []uint8) bool {
		b := NewBuilder()
		base := uint64(0x10000)
		count := 0
		for i, sz := range sizes {
			if count >= 14 {
				break
			}
			n := uint64(sz) + 1
			b.RegisterNode("arr", base, n, 4, i)
			base += (n*4/4096 + 2) * 4096
			count++
		}
		if count == 0 {
			return true
		}
		b.RegisterTrigEdge(0x10000, TriggerConfig{})
		d, err := b.Build()
		if err != nil {
			return false
		}
		return d.StorageBits(16) <= 16*300 && d.Lookahead(d.TriggerNodes()[0]) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	a := buildBFSLike(t)
	b := buildBFSLike(t)
	if !Equal(a, b) {
		t.Fatal("identical DIGs not equal")
	}
	// Different edge type.
	c := buildBFSLike(t)
	c.Edges[0].Type = Ranged
	if Equal(a, c) {
		t.Fatal("edge type difference not detected")
	}
	// Missing trigger.
	e := buildBFSLike(t)
	e.Nodes[0].IsTrigger = false
	if Equal(a, e) {
		t.Fatal("trigger difference not detected")
	}
}

func TestSubset(t *testing.T) {
	a := buildBFSLike(t)
	if !Subset(a, a) {
		t.Fatal("a DIG is a subset of itself")
	}
	pruned := buildBFSLike(t)
	pruned.Edges = pruned.Edges[1:]
	if !Subset(pruned, a) || Subset(a, pruned) {
		t.Fatal("dropping an edge must give a strict subset")
	}
	moved := buildBFSLike(t)
	moved.Nodes[0].Bound++
	if Subset(moved, a) {
		t.Fatal("node bound difference not detected")
	}
}

func TestStringRendersEverything(t *testing.T) {
	s := buildBFSLike(t).String()
	for _, want := range []string{"workQ", "edgeList", "[trigger]", "w1", "depth 4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if SingleValued.String() != "w0" || Ranged.String() != "w1" || Trigger.String() != "w2" || EdgeType(9).String() != "?" {
		t.Error("EdgeType strings wrong")
	}
}
