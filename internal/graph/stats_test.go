package graph

import "sort"

// Uniform generates an Erdős–Rényi style directed graph with n vertices and
// m edges drawn uniformly at random (GAP's urand analogue). No dataset uses
// it; the tests use it as an unskewed contrast to RMAT and as a source of
// random edge lists.
func Uniform(n, m int, seed uint64) *Graph {
	r := NewRand(seed)
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		src[i] = uint32(r.Intn(n))
		dst[i] = uint32(r.Intn(n))
	}
	return FromEdges(n, src, dst)
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
