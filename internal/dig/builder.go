package dig

import (
	"fmt"
	"math/bits"
	"sort"
)

// Builder implements the runtime registration API of Fig. 8(d). The
// workload (or the compiler-instrumented binary) calls RegisterNode /
// RegisterTravEdge / RegisterTrigEdge; Build validates and produces the
// DIG the hardware tables are programmed with.
type Builder struct {
	nodes   []Node
	edges   []Edge
	trigCfg map[NodeID]TriggerConfig
	errs    []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{trigCfg: map[NodeID]TriggerConfig{}}
}

// ElemSizeError reports a RegisterNode element size the node table cannot
// hold: not a power of two in [1, 128]. Prodigy's walk converts between
// addresses and element indices with shifts, as the hardware does.
type ElemSizeError struct {
	Node, Size int
}

func (e *ElemSizeError) Error() string {
	return fmt.Sprintf("dig: node %d has bad element size %d (want a power of two up to 128)", e.Node, e.Size)
}

// RegisterNode registers a data structure: base address, element count,
// element size in bytes, and the node ID (the registerNode API call). The
// element size must be a power of two that fits DataSize; any other size
// makes Build fail with an *ElemSizeError.
func (b *Builder) RegisterNode(name string, base, numElems uint64, elemSize int, id int) {
	if elemSize <= 0 || elemSize > 255 || bits.OnesCount(uint(elemSize)) != 1 {
		b.errs = append(b.errs, &ElemSizeError{Node: id, Size: elemSize})
		return
	}
	b.nodes = append(b.nodes, Node{
		ID:       NodeID(id),
		Name:     name,
		Base:     base,
		Bound:    base + numElems*uint64(elemSize),
		DataSize: uint8(elemSize),
	})
}

// scan finds the registered node containing addr (the runtime's node-table
// scan).
func (b *Builder) scan(addr uint64) *Node {
	for i := range b.nodes {
		if b.nodes[i].Contains(addr) {
			return &b.nodes[i]
		}
	}
	return nil
}

// RegisterTravEdge registers a traversal edge between the data structures
// containing srcAddr and dstAddr (the registerTravEdge API call). Edges
// whose endpoints are not registered nodes are dropped, matching the
// paper's run-time resolution semantics ("prefetching is only triggered
// for indirections whose edges consist of resolved and registered nodes").
func (b *Builder) RegisterTravEdge(srcAddr, dstAddr uint64, typ EdgeType) {
	if typ != SingleValued && typ != Ranged {
		b.errs = append(b.errs, fmt.Errorf("dig: traversal edge with non-traversal type %v", typ))
		return
	}
	src := b.scan(srcAddr)
	dst := b.scan(dstAddr)
	if src == nil || dst == nil {
		return // unresolved: dropped at run time
	}
	b.edges = append(b.edges, Edge{Src: src.ID, Dst: dst.ID, Type: typ})
}

// RegisterTrigEdge registers a trigger self-edge on the data structure
// containing addr (the registerTrigEdge API call).
func (b *Builder) RegisterTrigEdge(addr uint64, cfg TriggerConfig) {
	n := b.scan(addr)
	if n == nil {
		return // unresolved: dropped at run time
	}
	n.IsTrigger = true
	b.trigCfg[n.ID] = cfg
}

// Build validates the registrations and returns the DIG.
func (b *Builder) Build() (*DIG, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	seen := map[NodeID]bool{}
	maxID := NodeID(0)
	for i := range b.nodes {
		n := &b.nodes[i]
		if seen[n.ID] {
			return nil, fmt.Errorf("dig: duplicate node ID %d", n.ID)
		}
		seen[n.ID] = true
		if n.ID > maxID {
			maxID = n.ID
		}
		for j := range b.nodes {
			if i != j && b.nodes[i].Base < b.nodes[j].Bound && b.nodes[j].Base < b.nodes[i].Bound {
				return nil, fmt.Errorf("dig: nodes %d and %d overlap", b.nodes[i].ID, b.nodes[j].ID)
			}
		}
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("dig: no nodes registered")
	}
	hasTrigger := false
	for i := range b.nodes {
		if b.nodes[i].IsTrigger {
			hasTrigger = true
		}
	}
	if !hasTrigger {
		return nil, fmt.Errorf("dig: no trigger edge registered")
	}

	d := &DIG{
		Nodes:      append([]Node(nil), b.nodes...),
		Edges:      append([]Edge(nil), b.edges...),
		TriggerCfg: make(map[NodeID]TriggerConfig, len(b.trigCfg)),
		out:        make([][]int, maxID+1),
	}
	sort.Slice(d.Nodes, func(i, j int) bool { return d.Nodes[i].ID < d.Nodes[j].ID })
	for id, cfg := range b.trigCfg {
		d.TriggerCfg[id] = cfg
	}
	for i, e := range d.Edges {
		d.out[e.Src] = append(d.out[e.Src], i)
	}
	// Precompute the hot-path caches (see the DIG field comments): resolved
	// out-edge slices, then longest-path depths (whose DFS reads the former).
	d.outEdges = make([][]Edge, maxID+1)
	for id := range d.outEdges {
		idxs := d.out[id]
		if len(idxs) == 0 {
			continue
		}
		es := make([]Edge, len(idxs))
		for i, e := range idxs {
			es[i] = d.Edges[e]
		}
		d.outEdges[id] = es
	}
	d.depths = make([]int, maxID+1)
	for id := range d.depths {
		d.depths[id] = d.DepthFrom(NodeID(id))
	}
	return d, nil
}
