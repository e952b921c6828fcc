// Package dig implements the Data Indirection Graph (DIG), the paper's
// compact representation of data-structure layout and traversal patterns
// (Section III).
//
// Nodes describe arrays (base address, capacity, element size); weighted
// directed edges describe data-dependent accesses between them: w0
// single-valued indirection, w1 ranged indirection, and w2 trigger
// self-edges that start prefetch sequences. The Builder mirrors the
// runtime registration API of Fig. 8(d): registerNode, registerTravEdge,
// registerTrigEdge.
package dig

import (
	"fmt"
	"strings"
)

// NodeID identifies a DIG node (a data structure).
type NodeID uint8

// EdgeType is the weight of a DIG edge.
type EdgeType uint8

// Edge types (the paper's w0/w1/w2).
const (
	// SingleValued (w0): a value loaded from the source array indexes the
	// destination array (e.g. edgeList -> visited in BFS).
	SingleValued EdgeType = iota
	// Ranged (w1): consecutive source elements a[i], a[i+1] bound a
	// streaming access into the destination (e.g. offsetList -> edgeList).
	Ranged
	// Trigger (w2): self-edge marking the data structure whose demand
	// accesses start prefetch sequences.
	Trigger
)

func (t EdgeType) String() string {
	switch t {
	case SingleValued:
		return "w0"
	case Ranged:
		return "w1"
	case Trigger:
		return "w2"
	}
	return "?"
}

// Node is a DIG node: one registered data structure.
type Node struct {
	ID NodeID
	// Name is a debugging label (not part of the hardware state).
	Name string
	// Base and Bound delimit the virtual address range [Base, Bound).
	Base, Bound uint64
	// DataSize is the element size in bytes.
	DataSize uint8
	// IsTrigger marks the node as having a trigger self-edge.
	IsTrigger bool
}

// Contains reports whether addr falls inside the node's range.
func (n *Node) Contains(addr uint64) bool { return addr >= n.Base && addr < n.Bound }

// Index converts an address within the node to an element index.
func (n *Node) Index(addr uint64) uint64 { return (addr - n.Base) / uint64(n.DataSize) }

// ElemAddr converts an element index to a virtual address.
func (n *Node) ElemAddr(idx uint64) uint64 { return n.Base + idx*uint64(n.DataSize) }

// NumElems returns the node's capacity in elements.
func (n *Node) NumElems() uint64 { return (n.Bound - n.Base) / uint64(n.DataSize) }

// Edge is a DIG traversal edge.
type Edge struct {
	Src, Dst NodeID
	Type     EdgeType
}

// TriggerConfig carries the trigger edge's prefetch-sequence
// initialization parameters (Section IV-C): the look-ahead distance j, the
// number of sequences k-j+1 started per trigger, and the traversal
// direction.
type TriggerConfig struct {
	// Lookahead is the distance j ahead of the demanded trigger element.
	// Zero means "use the depth heuristic" (LookaheadForDepth).
	Lookahead int
	// NumSeqs is how many consecutive sequences to initialize per trigger
	// event. Zero means the default of 4.
	NumSeqs int
	// Descending reverses the traversal direction over the trigger array.
	Descending bool
}

// DefaultNumSeqs is the number of prefetch sequences initialized per
// trigger event when not overridden.
const DefaultNumSeqs = 8

// LookaheadForDepth implements the paper's heuristic: the look-ahead
// distance shrinks as the DIG's critical path (prefetch depth) grows, with
// distance one for depths of four or more.
func LookaheadForDepth(depth int) int {
	switch {
	case depth <= 1:
		return 64
	case depth == 2:
		return 16
	case depth == 3:
		return 12
	default:
		return 1
	}
}

// DIG is a complete Data Indirection Graph plus its trigger parameters.
type DIG struct {
	Nodes []Node
	Edges []Edge
	// TriggerCfg maps trigger node IDs to their sequence parameters.
	TriggerCfg map[NodeID]TriggerConfig
	// out[id] lists indices into Edges of traversal edges leaving id
	// (the hardware edge index table of Fig. 9b).
	out [][]int
	// outEdges[id] caches the resolved Edge values per source node and
	// depths[id] the longest traversal path from it, both precomputed by
	// Builder.Build so the prefetcher's per-demand hot path (OutEdges,
	// Lookahead) never allocates. The graph is immutable after Build, so
	// the caches survive the shallow copies the ablations make.
	outEdges [][]Edge
	depths   []int
}

// NodeByID returns the node with the given ID, or nil.
func (d *DIG) NodeByID(id NodeID) *Node {
	for i := range d.Nodes {
		if d.Nodes[i].ID == id {
			return &d.Nodes[i]
		}
	}
	return nil
}

// NodeContaining returns the node whose range contains addr, or nil. This
// is the node-table scan the runtime performs in registerTravEdge and the
// hardware performs on every L1D snoop.
func (d *DIG) NodeContaining(addr uint64) *Node {
	for i := range d.Nodes {
		if d.Nodes[i].Contains(addr) {
			return &d.Nodes[i]
		}
	}
	return nil
}

// Covers reports whether addr lies inside any registered data structure
// (the Fig. 13 "prefetchable" classification).
func (d *DIG) Covers(addr uint64) bool { return d.NodeContaining(addr) != nil }

// OutEdges returns the traversal edges leaving node id. The returned
// slice is shared (Build's cache); callers must not modify it.
func (d *DIG) OutEdges(id NodeID) []Edge {
	if d.outEdges != nil {
		if int(id) < len(d.outEdges) {
			return d.outEdges[id]
		}
		return nil
	}
	if int(id) >= len(d.out) {
		return nil
	}
	idxs := d.out[id]
	es := make([]Edge, len(idxs))
	for i, e := range idxs {
		es[i] = d.Edges[e]
	}
	return es
}

// IsLeaf reports whether node id has no outgoing traversal edges.
func (d *DIG) IsLeaf(id NodeID) bool { return len(d.OutEdges(id)) == 0 }

// TriggerNodes returns the IDs of all trigger nodes.
func (d *DIG) TriggerNodes() []NodeID {
	var out []NodeID
	for i := range d.Nodes {
		if d.Nodes[i].IsTrigger {
			out = append(out, d.Nodes[i].ID)
		}
	}
	return out
}

// DepthFrom returns the number of nodes on the longest traversal path
// starting at node id (1 when the node has no outgoing edges).
func (d *DIG) DepthFrom(id NodeID) int {
	if int(id) < len(d.depths) && d.depths[id] > 0 {
		return d.depths[id]
	}
	var dfs func(id NodeID, seen map[NodeID]bool) int
	dfs = func(id NodeID, seen map[NodeID]bool) int {
		if seen[id] {
			return 0
		}
		seen[id] = true
		best := 0
		for _, e := range d.OutEdges(id) {
			if l := dfs(e.Dst, seen); l > best {
				best = l
			}
		}
		seen[id] = false
		return 1 + best
	}
	return dfs(id, map[NodeID]bool{})
}

// Depth returns the number of nodes on the longest traversal path starting
// from any trigger node (the paper's "prefetch depth": BFS's
// workQueue->offset->edge->visited has depth 4).
func (d *DIG) Depth() int {
	var dfs func(id NodeID, seen map[NodeID]bool) int
	dfs = func(id NodeID, seen map[NodeID]bool) int {
		if seen[id] {
			return 0
		}
		seen[id] = true
		best := 0
		for _, e := range d.OutEdges(id) {
			if l := dfs(e.Dst, seen); l > best {
				best = l
			}
		}
		seen[id] = false
		return 1 + best
	}
	best := 0
	for _, t := range d.TriggerNodes() {
		if l := dfs(t, map[NodeID]bool{}); l > best {
			best = l
		}
	}
	return best
}

// Lookahead resolves the look-ahead distance for trigger node id, applying
// the depth heuristic (on that trigger's own walk depth) when the trigger
// config does not pin one.
func (d *DIG) Lookahead(id NodeID) int {
	if cfg, ok := d.TriggerCfg[id]; ok && cfg.Lookahead > 0 {
		return cfg.Lookahead
	}
	return LookaheadForDepth(d.DepthFrom(id))
}

// NumSeqs resolves the sequences-per-trigger count for trigger node id.
func (d *DIG) NumSeqs(id NodeID) int {
	if cfg, ok := d.TriggerCfg[id]; ok && cfg.NumSeqs > 0 {
		return cfg.NumSeqs
	}
	return DefaultNumSeqs
}

// StorageBits models the prefetcher-local SRAM cost of the DIG tables with
// the paper's assumptions (48-bit physical / 64-bit virtual addresses):
// node table entries hold base+bound virtual addresses, a 2-bit element
// size code, and a trigger bit; edge table entries hold two base addresses
// and a 2-bit type; the edge index table holds per-node offsets.
func (d *DIG) StorageBits(tableEntries int) int {
	nodeEntry := 64 + 64 + 2 + 1 // base, bound, size code, trigger
	edgeEntry := 64 + 64 + 2     // src base, dst base, type
	idxEntry := 5 + 5            // offset + count into a 16-entry table
	return tableEntries * (nodeEntry + edgeEntry + idxEntry)
}

func (d *DIG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DIG{%d nodes, %d edges, depth %d}\n", len(d.Nodes), len(d.Edges), d.Depth())
	for i := range d.Nodes {
		n := &d.Nodes[i]
		trig := ""
		if n.IsTrigger {
			trig = " [trigger]"
		}
		fmt.Fprintf(&b, "  node %d %q base=%#x bound=%#x size=%d%s\n",
			n.ID, n.Name, n.Base, n.Bound, n.DataSize, trig)
	}
	for _, e := range d.Edges {
		fmt.Fprintf(&b, "  edge %d -> %d (%s)\n", e.Src, e.Dst, e.Type)
	}
	return b.String()
}

// Equal reports structural equality of two DIGs (same nodes by ID/range/
// size/trigger and same edge multiset), used to check that the compiler
// pass derives the same DIG as manual annotation.
func Equal(a, b *DIG) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Nodes {
		an := &a.Nodes[i]
		bn := b.NodeByID(an.ID)
		if bn == nil || an.Base != bn.Base || an.Bound != bn.Bound ||
			an.DataSize != bn.DataSize || an.IsTrigger != bn.IsTrigger {
			return false
		}
	}
	match := make([]bool, len(b.Edges))
	for _, ae := range a.Edges {
		found := false
		for j, be := range b.Edges {
			if !match[j] && ae == be {
				match[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Subset reports whether every node of sub appears in super with the same
// ID and address range, and every edge of sub is an edge of super: the
// relation a programmer's refinement of the compiler-derived DIG keeps
// (Section III-B: the two sources "can complement each other").
func Subset(sub, super *DIG) bool {
	for i := range sub.Nodes {
		n := super.NodeByID(sub.Nodes[i].ID)
		if n == nil || n.Base != sub.Nodes[i].Base || n.Bound != sub.Nodes[i].Bound {
			return false
		}
	}
	for _, e := range sub.Edges {
		found := false
		for _, o := range super.Edges {
			if e == o {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
