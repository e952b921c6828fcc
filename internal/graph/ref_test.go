package graph

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// refFromEdges and refUndirected are the sort-based builders that
// FromEdges and Undirected replaced, kept as references: a scatter by
// source followed by a comparison sort of every adjacency list, and
// symmetrization through mirrored 2m-edge arrays.
func refFromEdges(n int, src, dst []uint32) *Graph {
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
	for u := 0; u < g.NumNodes; u++ {
		slices.Sort(g.EdgeList[g.OffsetList[u]:g.OffsetList[u+1]])
	}
	return g
}

func refUndirected(g *Graph) *Graph {
	src := make([]uint32, 0, 2*len(g.EdgeList))
	dst := make([]uint32, 0, 2*len(g.EdgeList))
	for u := 0; u < g.NumNodes; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			src = append(src, uint32(u), v)
			dst = append(dst, v, uint32(u))
		}
	}
	h := refFromEdges(g.NumNodes, src, dst)
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

// edgeList returns g's edges in CSR order as source and destination arrays.
func edgeList(g *Graph) (src, dst []uint32) {
	for u := 0; u < g.NumNodes; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			src = append(src, uint32(u))
			dst = append(dst, v)
		}
	}
	return src, dst
}

// sameCSR reports the first array in which got and want differ.
func sameCSR(what string, got, want *Graph) error {
	if got.NumNodes != want.NumNodes {
		return fmt.Errorf("%s: NumNodes %d, want %d", what, got.NumNodes, want.NumNodes)
	}
	for _, a := range []struct {
		name      string
		got, want []uint32
	}{
		{"OffsetList", got.OffsetList, want.OffsetList},
		{"EdgeList", got.EdgeList, want.EdgeList},
		{"InOffsetList", got.InOffsetList, want.InOffsetList},
		{"InEdgeList", got.InEdgeList, want.InEdgeList},
	} {
		if !slices.Equal(a.got, a.want) {
			return fmt.Errorf("%s: %s = %v, want %v", what, a.name, a.got, a.want)
		}
	}
	return nil
}

// checkBuildVsRef builds the edge list (src, dst) on n vertices with
// FromEdges, BuildCSC and Undirected and compares every array with the
// sort-based references, also on HubSort's output, whose lists are
// unsorted. Relabel, which keeps list order, is checked edge by edge.
func checkBuildVsRef(n int, src, dst []uint32) error {
	g := FromEdges(n, src, dst)
	if err := sameCSR("FromEdges", g, refFromEdges(n, src, dst)); err != nil {
		return err
	}
	c := FromEdges(n, src, dst)
	c.BuildCSC()
	want := refFromEdges(n, src, dst)
	in := refFromEdges(n, dst, src)
	want.InOffsetList, want.InEdgeList = in.OffsetList, in.EdgeList
	if err := sameCSR("BuildCSC", c, want); err != nil {
		return err
	}
	if err := sameCSR("Undirected", g.Undirected(), refUndirected(g)); err != nil {
		return err
	}
	h := HubSort(g)
	if err := sameCSR("Undirected(HubSort)", h.Undirected(), refUndirected(h)); err != nil {
		return err
	}
	hs, hd := edgeList(h)
	if err := sameCSR("FromEdges(HubSort)", FromEdges(n, hs, hd), refFromEdges(n, hs, hd)); err != nil {
		return err
	}
	// Relabel must move each list whole and in order, renaming its
	// entries and keeping each weight with its edge. Reversed IDs turn
	// the sorted lists into descending ones.
	wg := &Graph{NumNodes: n, OffsetList: g.OffsetList, EdgeList: g.EdgeList}
	wg.AddWeights(1, 1024)
	rev := make([]uint32, n)
	for u := range rev {
		rev[u] = uint32(n - 1 - u)
	}
	r := Relabel(wg, rev)
	for u := 0; u < n; u++ {
		lo, hi := r.OffsetList[rev[u]], r.OffsetList[rev[u]+1]
		nb, w := g.Neighbors(uint32(u)), wg.Weights[g.OffsetList[u]:g.OffsetList[u+1]]
		if int(hi-lo) != len(nb) {
			return fmt.Errorf("Relabel: vertex %d has %d neighbours, want %d", u, hi-lo, len(nb))
		}
		for i, v := range nb {
			if r.EdgeList[lo+uint32(i)] != rev[v] || r.Weights[lo+uint32(i)] != w[i] {
				return fmt.Errorf("Relabel: list of %d = %v weights %v, want %v weights %v renamed",
					u, r.EdgeList[lo:hi], r.Weights[lo:hi], nb, w)
			}
		}
	}
	return nil
}

// randomEdges draws m edges on n vertices. With dense set, endpoints come
// from the first few vertices only, so duplicates and self-loops are
// common and the remaining vertices stay isolated.
func randomEdges(n, m int, dense bool, seed uint64) (src, dst []uint32) {
	r := NewRand(seed)
	span := n
	if dense {
		span = min(n, 3)
	}
	src = make([]uint32, m)
	dst = make([]uint32, m)
	for i := range src {
		src[i] = uint32(r.Intn(span))
		dst[i] = uint32(r.Intn(span))
	}
	return src, dst
}

func TestBuildVsRefEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		src, dst []uint32
	}{
		{"n=1,m=0", 1, nil, nil},
		{"n=5,m=0", 5, nil, nil},
		{"n=1,self-loops", 1, []uint32{0, 0, 0}, []uint32{0, 0, 0}},
		{"repeats across in/out", 3, []uint32{0, 1, 0, 1, 2}, []uint32{1, 0, 1, 0, 2}},
		{"isolated middle", 6, []uint32{5, 0, 5, 0}, []uint32{0, 5, 5, 0}},
	} {
		if err := checkBuildVsRef(tc.n, tc.src, tc.dst); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// Property: on random edge lists (sparse, or dense with repeats and
// self-loops, n from 1 to 40, m from 0 to 199) the builders agree with the
// references.
func TestQuickBuildVsRef(t *testing.T) {
	f := func(seed uint64, n8, m8 uint8, dense bool) bool {
		n, m := 1+int(n8)%40, int(m8)%200
		src, dst := randomEdges(n, m, dense, seed)
		if err := checkBuildVsRef(n, src, dst); err != nil {
			t.Logf("n=%d m=%d dense=%v seed=%d: %v", n, m, dense, seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzGraphBuildVsRef reads n from the first byte (1 to 64) and an edge
// per following byte pair.
func FuzzGraphBuildVsRef(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{3, 0, 1, 1, 0, 0, 1, 2, 2})
	f.Add([]byte{8, 7, 0, 0, 7, 7, 7, 3, 4, 4, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		var src, dst []uint32
		for i := 1; i+1 < len(data); i += 2 {
			src = append(src, uint32(data[i])%uint32(n))
			dst = append(dst, uint32(data[i+1])%uint32(n))
		}
		if err := checkBuildVsRef(n, src, dst); err != nil {
			t.Fatal(err)
		}
	})
}
