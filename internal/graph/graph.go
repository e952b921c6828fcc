// Package graph provides sparse graph representations (CSR/CSC), synthetic
// generators standing in for the paper's SNAP/UF datasets, and the HubSort
// reordering used by the Fig. 18 experiment.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a directed graph in compressed sparse row (CSR) form, optionally
// with the transpose (CSC) and per-edge weights.
type Graph struct {
	// NumNodes is the vertex count.
	NumNodes int
	// OffsetList has NumNodes+1 entries; the out-neighbors of u are
	// EdgeList[OffsetList[u]:OffsetList[u+1]].
	OffsetList []uint32
	// EdgeList stores destination vertex IDs.
	EdgeList []uint32
	// Weights, when non-nil, stores one weight per EdgeList entry.
	Weights []uint32

	// InOffsetList / InEdgeList are the CSC (transpose) arrays, built on
	// demand by BuildCSC. PageRank's pull direction uses them.
	InOffsetList []uint32
	InEdgeList   []uint32
}

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.EdgeList) }

// OutDegree returns u's out-degree.
func (g *Graph) OutDegree(u uint32) int {
	return int(g.OffsetList[u+1] - g.OffsetList[u])
}

// Neighbors returns u's out-neighbor slice (aliased, do not mutate).
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.EdgeList[g.OffsetList[u]:g.OffsetList[u+1]]
}

// SizeBytes returns the CSR footprint (offset + edge lists, plus weights
// and CSC when present), mirroring Table II's "Size" column.
func (g *Graph) SizeBytes() int {
	n := 4 * (len(g.OffsetList) + len(g.EdgeList))
	n += 4 * len(g.Weights)
	n += 4 * (len(g.InOffsetList) + len(g.InEdgeList))
	return n
}

// String renders a compact size summary for logs and error messages.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes, g.NumEdges())
}

// FromEdges builds a CSR graph from an edge list. Self-loops are kept;
// duplicate edges are kept (matching GAP semantics for synthetic inputs).
func FromEdges(n int, src, dst []uint32) *Graph {
	if len(src) != len(dst) {
		panic("graph: src/dst length mismatch")
	}
	off := make([]uint32, n+1)
	for _, u := range src {
		off[u+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	edges := make([]uint32, len(src))
	cursor := make([]uint32, n)
	copy(cursor, off[:n])
	for i, u := range src {
		edges[cursor[u]] = dst[i]
		cursor[u]++
	}
	g := &Graph{NumNodes: n, OffsetList: off, EdgeList: edges}
	g.sortAdjacency()
	return g
}

// sortAdjacency sorts each adjacency list (GAP builds sorted CSR).
func (g *Graph) sortAdjacency() {
	for u := 0; u < g.NumNodes; u++ {
		slices.Sort(g.EdgeList[g.OffsetList[u]:g.OffsetList[u+1]])
	}
}

// BuildCSC populates InOffsetList/InEdgeList with the transpose.
func (g *Graph) BuildCSC() {
	n := g.NumNodes
	off := make([]uint32, n+1)
	for _, v := range g.EdgeList {
		off[v+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	in := make([]uint32, len(g.EdgeList))
	cursor := make([]uint32, n)
	copy(cursor, off[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			in[cursor[v]] = uint32(u)
			cursor[v]++
		}
	}
	g.InOffsetList = off
	g.InEdgeList = in
}

// AddWeights assigns deterministic pseudo-random weights in [1, maxW] to
// every edge (used by SSSP).
func (g *Graph) AddWeights(seed uint64, maxW uint32) {
	r := NewRand(seed)
	g.Weights = make([]uint32, len(g.EdgeList))
	for i := range g.Weights {
		g.Weights[i] = 1 + uint32(r.Next()%uint64(maxW))
	}
}

// Undirected returns a graph with every edge mirrored (deduplicated),
// as GAP does for BFS/CC/BC on symmetric inputs: each vertex's neighbours
// are the sorted, unique union of its out- and in-neighbours.
func (g *Graph) Undirected() *Graph {
	src := make([]uint32, 0, 2*len(g.EdgeList))
	dst := make([]uint32, 0, 2*len(g.EdgeList))
	for u := 0; u < g.NumNodes; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			src = append(src, uint32(u), v)
			dst = append(dst, v, uint32(u))
		}
	}
	h := FromEdges(g.NumNodes, src, dst)
	// Drop repeats from each sorted list in place: the write position
	// never passes the start of the list being read.
	w := uint32(0)
	for u := 0; u < h.NumNodes; u++ {
		s := h.Neighbors(uint32(u))
		h.OffsetList[u] = w
		w += uint32(copy(h.EdgeList[w:], slices.Compact(s)))
	}
	h.OffsetList[h.NumNodes] = w
	h.EdgeList = h.EdgeList[:w]
	return h
}

// MaxDegreeVertex returns the vertex with the largest out-degree; GAP picks
// high-degree sources for BFS-like kernels to get interesting traversals.
func (g *Graph) MaxDegreeVertex() uint32 {
	best, bestDeg := uint32(0), -1
	for u := 0; u < g.NumNodes; u++ {
		if d := g.OutDegree(uint32(u)); d > bestDeg {
			best, bestDeg = uint32(u), d
		}
	}
	return best
}

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// P99 is the 99th-percentile degree; the skew indicator used to check
	// that synthetic stand-ins match their real counterparts' shape.
	P99 int
}

// Degrees computes out-degree statistics.
func (g *Graph) Degrees() DegreeStats {
	n := g.NumNodes
	ds := make([]int, n)
	min, max, sum := int(^uint(0)>>1), 0, 0
	for u := 0; u < n; u++ {
		d := g.OutDegree(uint32(u))
		ds[u] = d
		sum += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	sort.Ints(ds)
	return DegreeStats{
		Min:  min,
		Max:  max,
		Mean: float64(sum) / float64(n),
		P99:  ds[n*99/100],
	}
}
