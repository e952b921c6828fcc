// Package graph provides sparse graph representations (CSR/CSC), synthetic
// generators standing in for the paper's SNAP/UF datasets, and the HubSort
// reordering used by the Fig. 18 experiment.
package graph

import "fmt"

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
// Adjacency lists come out sorted (GAP builds sorted CSR) without a
// comparison sort: a stable counting pass buckets the edges by
// destination, and scattering those buckets by source in ascending
// destination order leaves each source's list in destination order.
func FromEdges(n int, src, dst []uint32) *Graph {
	if len(src) != len(dst) {
		panic("graph: src/dst length mismatch")
	}
	inOff, in, _ := scatter(n, nil, dst, src, nil)
	off, edges, _ := scatter(n, inOff, in, nil, nil)
	return &Graph{NumNodes: n, OffsetList: off, EdgeList: edges}
}

// scatter is the stable counting sort behind every CSR built here. Item i
// goes to bucket key[i] < n, and items reach a bucket in index order. It
// returns the CSR offsets of the buckets and the items' values: val[i], or,
// when val is nil, the row r of the CSR offsets off holding item i
// (off[r] <= i < off[r+1]), which makes scatter a transpose with sorted
// lists. w, when non-nil with a non-nil val, is a payload moved alongside
// val.
func scatter(n int, off, key, val, w []uint32) (bOff, out, wOut []uint32) {
	bOff = make([]uint32, n+1)
	for _, k := range key {
		bOff[k+1]++
	}
	for i := 1; i <= n; i++ {
		bOff[i] += bOff[i-1]
	}
	// bOff[k] serves as bucket k's cursor and ends at the start of
	// bucket k+1; the shift after the scatter restores the offsets.
	out = make([]uint32, len(key))
	if val == nil {
		for r := 0; r+1 < len(off); r++ {
			for _, k := range key[off[r]:off[r+1]] {
				out[bOff[k]] = uint32(r)
				bOff[k]++
			}
		}
	} else {
		if w != nil {
			wOut = make([]uint32, len(key))
		}
		for i, k := range key {
			p := bOff[k]
			bOff[k]++
			out[p] = val[i]
			if w != nil {
				wOut[p] = w[i]
			}
		}
	}
	copy(bOff[1:], bOff[:n])
	bOff[0] = 0
	return bOff, out, wOut
}

// BuildCSC populates InOffsetList/InEdgeList with the transpose.
func (g *Graph) BuildCSC() {
	g.InOffsetList, g.InEdgeList, _ = scatter(g.NumNodes, g.OffsetList, g.EdgeList, nil, nil)
}

// AddWeights assigns deterministic pseudo-random weights in [1, maxW] to
// every edge (used by SSSP). maxW must be a power of two, so a mask picks
// the weight.
func (g *Graph) AddWeights(seed uint64, maxW uint32) {
	if maxW == 0 || maxW&(maxW-1) != 0 {
		panic(fmt.Sprintf("graph: AddWeights maxW %d is not a power of two", maxW))
	}
	r := NewRand(seed)
	g.Weights = make([]uint32, len(g.EdgeList))
	for i := range g.Weights {
		g.Weights[i] = 1 + uint32(r.Next()&uint64(maxW-1))
	}
}

// Undirected returns a graph with every edge mirrored (deduplicated),
// as GAP does for BFS/CC/BC on symmetric inputs: each vertex's neighbours
// are the sorted, unique union of its out- and in-neighbours. The
// transpose gives sorted in-lists and its transpose sorted out-lists, also
// when g's own lists are unsorted (HubSort output); each vertex's two
// lists are then merged, dropping repeats.
func (g *Graph) Undirected() *Graph {
	n := g.NumNodes
	inOff, in, _ := scatter(n, g.OffsetList, g.EdgeList, nil, nil)
	outOff, out, _ := scatter(n, inOff, in, nil, nil)
	off := make([]uint32, n+1)
	edges := make([]uint32, 2*len(in))
	w := uint32(0)
	for u := 0; u < n; u++ {
		off[u] = w
		a, b := out[outOff[u]:outOff[u+1]], in[inOff[u]:inOff[u+1]]
		for len(a) > 0 || len(b) > 0 {
			var x uint32
			if len(b) == 0 || len(a) > 0 && a[0] <= b[0] {
				x, a = a[0], a[1:]
			} else {
				x, b = b[0], b[1:]
			}
			if w == off[u] || edges[w-1] != x {
				edges[w] = x
				w++
			}
		}
	}
	off[n] = w
	return &Graph{NumNodes: n, OffsetList: off, EdgeList: edges[:w]}
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
