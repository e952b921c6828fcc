package graph

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	// 0->1, 0->2, 1->2, 2->0
	g := FromEdges(3, []uint32{0, 0, 1, 2}, []uint32{1, 2, 2, 0})
	if g.NumNodes != 3 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes, g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(2) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", g.OutDegree(0), g.OutDegree(1), g.OutDegree(2))
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := Uniform(100, 2000, 7)
	for u := 0; u < g.NumNodes; u++ {
		nb := g.Neighbors(uint32(u))
		for i := 1; i < len(nb); i++ {
			if nb[i] < nb[i-1] {
				t.Fatalf("adjacency of %d unsorted: %v", u, nb)
			}
		}
	}
}

func TestBuildCSC(t *testing.T) {
	g := FromEdges(3, []uint32{0, 0, 1, 2}, []uint32{1, 2, 2, 0})
	g.BuildCSC()
	// In-neighbors: 0<-2; 1<-0; 2<-{0,1}
	inDeg := func(v int) int { return int(g.InOffsetList[v+1] - g.InOffsetList[v]) }
	if inDeg(0) != 1 || inDeg(1) != 1 || inDeg(2) != 2 {
		t.Fatalf("in-degrees: %d %d %d", inDeg(0), inDeg(1), inDeg(2))
	}
	if g.InEdgeList[g.InOffsetList[0]] != 2 {
		t.Errorf("in-neighbor of 0 should be 2")
	}
}

func TestCSCPreservesEdgeCount(t *testing.T) {
	g := RMAT(8, 8, 3)
	g.BuildCSC()
	if len(g.InEdgeList) != g.NumEdges() {
		t.Fatalf("CSC edges = %d, CSR edges = %d", len(g.InEdgeList), g.NumEdges())
	}
	// Sum of in-degrees equals sum of out-degrees.
	if int(g.InOffsetList[g.NumNodes]) != g.NumEdges() {
		t.Fatal("in-offset total mismatch")
	}
}

func TestUndirectedSymmetric(t *testing.T) {
	g := Uniform(50, 300, 9).Undirected()
	adj := make(map[[2]uint32]bool)
	for u := 0; u < g.NumNodes; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			adj[[2]uint32{uint32(u), v}] = true
		}
	}
	for e := range adj {
		if e[0] != e[1] && !adj[[2]uint32{e[1], e[0]}] {
			t.Fatalf("edge %v has no mirror", e)
		}
	}
}

func TestWeightsDeterministic(t *testing.T) {
	g1 := Uniform(20, 100, 5)
	g1.AddWeights(42, 64)
	g2 := Uniform(20, 100, 5)
	g2.AddWeights(42, 64)
	for i := range g1.Weights {
		if g1.Weights[i] != g2.Weights[i] {
			t.Fatal("weights not deterministic")
		}
		if g1.Weights[i] < 1 || g1.Weights[i] > 64 {
			t.Fatalf("weight %d out of range", g1.Weights[i])
		}
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(12, 16, 1)
	st := g.Degrees()
	// Power-law graphs must have hub vertices far above the mean.
	if float64(st.Max) < 8*st.Mean {
		t.Errorf("RMAT not skewed enough: max=%d mean=%.1f", st.Max, st.Mean)
	}
}

func TestUniformNotSkewed(t *testing.T) {
	g := Uniform(4096, 65536, 2)
	st := g.Degrees()
	if float64(st.Max) > 8*st.Mean {
		t.Errorf("uniform unexpectedly skewed: max=%d mean=%.1f", st.Max, st.Mean)
	}
}

func TestHubSortPutsHubsFirst(t *testing.T) {
	g := RMAT(10, 8, 4)
	h := HubSort(g)
	if h.NumNodes != g.NumNodes || h.NumEdges() != g.NumEdges() {
		t.Fatal("HubSort changed graph size")
	}
	// Degree of vertex 0 in h must be the max degree of g.
	if h.OutDegree(0) != g.Degrees().Max {
		t.Errorf("vertex 0 degree = %d, want max %d", h.OutDegree(0), g.Degrees().Max)
	}
	// Hub prefix must be non-increasing in degree.
	avg := g.NumEdges() / g.NumNodes
	prev := h.OutDegree(0)
	for u := 1; u < h.NumNodes; u++ {
		d := h.OutDegree(uint32(u))
		if d <= avg {
			break
		}
		if d > prev {
			t.Fatalf("hub degrees not sorted at %d: %d > %d", u, d, prev)
		}
		prev = d
	}
}

func TestRelabelPreservesWeights(t *testing.T) {
	g := FromEdges(3, []uint32{0, 1, 2}, []uint32{1, 2, 0})
	g.Weights = []uint32{10, 20, 30}
	// Swap vertices 0 and 2.
	h := Relabel(g, []uint32{2, 1, 0})
	// Edge 0->1 (w 10) becomes 2->1; 2->0 (w 30) becomes 0->2.
	found := false
	for i, v := range h.Neighbors(2) {
		if v == 1 && h.Weights[int(h.OffsetList[2])+i] == 10 {
			found = true
		}
	}
	if !found {
		t.Error("relabeled edge 2->1 lost weight 10")
	}
	if h.NumEdges() != 3 {
		t.Fatalf("edge count = %d", h.NumEdges())
	}
}

func TestDatasetsLoadAndCache(t *testing.T) {
	for _, name := range DatasetNames() {
		g := Load(name, ScaleTiny)
		if g.NumNodes == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s empty", name)
		}
		if g2 := Load(name, ScaleTiny); g2 != g {
			t.Errorf("%s not cached", name)
		}
		u := LoadUndirected(name, ScaleTiny)
		if u.NumEdges() < g.NumEdges() {
			t.Errorf("%s undirected smaller than directed", name)
		}
		w := LoadWeighted(name, ScaleTiny)
		if len(w.Weights) != w.NumEdges() {
			t.Errorf("%s weighted missing weights", name)
		}
		if &w.EdgeList[0] != &u.EdgeList[0] || &w.OffsetList[0] != &u.OffsetList[0] {
			t.Errorf("%s weighted does not share the undirected CSR arrays", name)
		}
		c := LoadWithCSC(name, ScaleTiny)
		if c.InOffsetList == nil {
			t.Errorf("%s CSC missing", name)
		}
		if &c.EdgeList[0] != &g.EdgeList[0] || &c.OffsetList[0] != &g.OffsetList[0] {
			t.Errorf("%s CSC variant does not share the base CSR arrays", name)
		}
		h := LoadHubSorted(name, ScaleTiny, "undir")
		if h.NumEdges() != u.NumEdges() {
			t.Errorf("%s hubsorted edge count changed", name)
		}
	}
}

func TestUnknownDatasetLeavesNoCacheEntry(t *testing.T) {
	for _, load := range goldenVariants {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unknown dataset did not panic", load.name)
				}
			}()
			load.load("zz", ScaleTiny)
		}()
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for k := range cache {
		if k.name == "zz" {
			t.Errorf("cache entry left for unknown dataset: %+v", k)
		}
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := FromEdges(4, []uint32{0, 1, 1, 1, 2}, []uint32{1, 0, 2, 3, 3})
	if v := g.MaxDegreeVertex(); v != 1 {
		t.Fatalf("max degree vertex = %d, want 1", v)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("PRNG not deterministic")
		}
	}
	if NewRand(0).Next() == 0 {
		t.Error("zero seed should be remapped")
	}
}

// Property: FromEdges preserves edge multiset size and every neighbor is a
// valid vertex.
func TestQuickFromEdgesValid(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 64
		var src, dst []uint32
		for i := 0; i+1 < len(pairs); i += 2 {
			src = append(src, uint32(pairs[i])%n)
			dst = append(dst, uint32(pairs[i+1])%n)
		}
		g := FromEdges(n, src, dst)
		if g.NumEdges() != len(src) {
			return false
		}
		for _, v := range g.EdgeList {
			if v >= n {
				return false
			}
		}
		return int(g.OffsetList[n]) == len(src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Undirected output is exactly the sorted, unique union of each
// vertex's out- and in-neighbours (so it holds the mirror of every edge),
// also for unsorted adjacency lists with duplicates and self-loops.
func TestQuickUndirected(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 30
		g := Uniform(n, 100, seed)
		for _, in := range []*Graph{g, HubSort(g)} { // Relabel leaves lists unsorted
			adj := make([]map[uint32]bool, n)
			for u := range adj {
				adj[u] = map[uint32]bool{}
			}
			for u := 0; u < n; u++ {
				for _, v := range in.Neighbors(uint32(u)) {
					adj[u][v] = true
					adj[v][uint32(u)] = true
				}
			}
			un := in.Undirected()
			for u := 0; u < n; u++ {
				nb := un.Neighbors(uint32(u))
				if len(nb) != len(adj[u]) {
					return false
				}
				for i, v := range nb {
					if !adj[u][v] || (i > 0 && nb[i-1] >= v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytes(t *testing.T) {
	g := FromEdges(3, []uint32{0}, []uint32{1})
	if got := g.SizeBytes(); got != 4*(4+1) {
		t.Fatalf("SizeBytes = %d, want 20", got)
	}
	g.AddWeights(1, 4)
	if got := g.SizeBytes(); got != 4*(4+1+1) {
		t.Fatalf("SizeBytes with weights = %d, want 24", got)
	}
}

func TestWebLikeShape(t *testing.T) {
	g := WebLike(1024, 8192, 64, 9)
	if g.NumNodes != 1024 || g.NumEdges() != 8192 {
		t.Fatalf("n=%d m=%d", g.NumNodes, g.NumEdges())
	}
	// Host locality: a majority of edges stay within the source's host.
	local := 0
	for u := 0; u < g.NumNodes; u++ {
		host := u / 64
		for _, v := range g.Neighbors(uint32(u)) {
			if int(v)/64 == host {
				local++
			}
		}
	}
	if frac := float64(local) / float64(g.NumEdges()); frac < 0.5 {
		t.Errorf("intra-host edge fraction = %.2f, want > 0.5", frac)
	}
	// Skew: hub *targets* exist — web graphs have in-degree hubs (popular
	// pages), while out-degrees stay moderate.
	g.BuildCSC()
	maxIn, sumIn := 0, 0
	for v := 0; v < g.NumNodes; v++ {
		d := int(g.InOffsetList[v+1] - g.InOffsetList[v])
		sumIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	meanIn := float64(sumIn) / float64(g.NumNodes)
	if float64(maxIn) < 8*meanIn {
		t.Errorf("web-like graph in-degree not skewed: max=%d mean=%.1f", maxIn, meanIn)
	}
}

func TestDegreeBoundsDatasets(t *testing.T) {
	// The five stand-ins must preserve their real counterparts' character:
	// or denser than po, sk biggest, power-law graphs skewed.
	po := Load("po", ScaleTiny)
	or := Load("or", ScaleTiny)
	if float64(or.NumEdges())/float64(or.NumNodes) <= float64(po.NumEdges())/float64(po.NumNodes) {
		t.Error("orkut stand-in should be denser than pokec's")
	}
	sk := Load("sk", ScaleSmall)
	for _, name := range []string{"po", "lj", "or", "wb"} {
		if Load(name, ScaleSmall).NumEdges() > sk.NumEdges() {
			t.Errorf("%s has more edges than sk", name)
		}
	}
}

func TestConcurrentLoadSingleflight(t *testing.T) {
	// Parallel experiment runs load dataset variants concurrently; every
	// caller must receive the same memoized *Graph (one build per variant),
	// and nothing may race (enforced under `go test -race`).
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]*Graph, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mixed variant kinds, including the recursive hub-sorted path.
			_ = LoadUndirected("po", ScaleTiny)
			_ = LoadWeighted("po", ScaleTiny)
			_ = LoadHubSorted("po", ScaleTiny, "csc")
			results[i] = Load("po", ScaleTiny)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d observed a different *Graph for the same variant", i)
		}
	}
}
