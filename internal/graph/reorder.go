package graph

import (
	"cmp"
	"slices"
)

// HubSort relabels vertices so that "hubs" (vertices with degree above the
// average) get the smallest IDs, ordered by decreasing degree, while
// non-hub vertices keep their relative order (Balaji & Lucia, IISWC'18).
// Fig. 18 evaluates Prodigy on graphs reordered this way.
func HubSort(g *Graph) *Graph {
	n := g.NumNodes
	avg := 0
	if n > 0 {
		avg = g.NumEdges() / n
	}
	type vd struct {
		v uint32
		d int
	}
	var hubs []vd
	for u := 0; u < n; u++ {
		if d := g.OutDegree(uint32(u)); d > avg {
			hubs = append(hubs, vd{uint32(u), d})
		}
	}
	slices.SortStableFunc(hubs, func(x, y vd) int { return cmp.Compare(y.d, x.d) })

	newID := make([]uint32, n)
	isHub := make([]bool, n)
	next := uint32(0)
	for _, h := range hubs {
		newID[h.v] = next
		isHub[h.v] = true
		next++
	}
	for u := 0; u < n; u++ {
		if !isHub[u] {
			newID[u] = next
			next++
		}
	}
	return Relabel(g, newID)
}

// Relabel returns a copy of g with vertex u renamed to newID[u]. Weights
// follow their edges; the CSC is rebuilt if it was present.
func Relabel(g *Graph, newID []uint32) *Graph {
	n := g.NumNodes
	src := make([]uint32, 0, g.NumEdges())
	dst := make([]uint32, 0, g.NumEdges())
	var w []uint32
	if g.Weights != nil {
		w = make([]uint32, 0, g.NumEdges())
	}
	for u := 0; u < n; u++ {
		base := g.OffsetList[u]
		for i, v := range g.Neighbors(uint32(u)) {
			src = append(src, newID[u])
			dst = append(dst, newID[v])
			if w != nil {
				w = append(w, g.Weights[int(base)+i])
			}
		}
	}
	// FromEdges sorts adjacency lists, which would scramble the weight
	// pairing; rebuild manually keeping (dst, weight) together.
	off := make([]uint32, n+1)
	for _, u := range src {
		off[u+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	edges := make([]uint32, len(src))
	var weights []uint32
	if w != nil {
		weights = make([]uint32, len(src))
	}
	cursor := make([]uint32, n)
	copy(cursor, off[:n])
	for i, u := range src {
		p := cursor[u]
		edges[p] = dst[i]
		if w != nil {
			weights[p] = w[i]
		}
		cursor[u]++
	}
	out := &Graph{NumNodes: n, OffsetList: off, EdgeList: edges, Weights: weights}
	if g.InOffsetList != nil {
		out.BuildCSC()
	}
	return out
}
