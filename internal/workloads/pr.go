package workloads

import (
	"fmt"
	"math"

	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/trace"
)

// PC site IDs for pr.
const (
	prPCScore uint32 = iota + 200
	prPCOutDeg
	prPCContrib
	prPCInOffLo
	prPCInOffHi
	prPCInEdge
	prPCContribLd
	prPCAccum
	prPCScoreSt
	prPCSoftPF
)

const prDamping = 0.85

// prIters is PageRank's iteration count.
const prIters = 3

// buildPR constructs pull-style PageRank: each iteration first computes
// per-vertex contributions (score/out-degree, a streaming pass over CSR
// degrees), then gathers in-neighbor contributions through the CSC arrays
// (the irregular pass). The paper notes pr uses both CSC and CSR and
// reaches speedups similar to the CSR-only kernels.
//
// DIG: inOffsetList -w1-> inEdgeList -w0-> contrib, trigger on
// inOffsetList (the sequentially-walked structure with no incoming edge);
// scores and outDeg carry stream trigger edges (the contribution phase
// walks them linearly), which also gives Fig. 13 coverage of every key
// array.
func buildPR(dataset string, cores int, opts Options) (*Workload, error) {
	g, err := loadGraph(dataset, "csc", opts)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes

	sp := memspace.New()
	inOffsets := sp.AllocU32("inOffsetList", n+1)
	copy(inOffsets.Data, g.InOffsetList)
	inEdges := sp.AllocU32("inEdgeList", len(g.InEdgeList))
	copy(inEdges.Data, g.InEdgeList)
	outDeg := sp.AllocU32("outDeg", n)
	for u := 0; u < n; u++ {
		outDeg.Data[u] = uint32(g.OutDegree(uint32(u)))
	}
	scores := sp.AllocF32("scores", n)
	contrib := sp.AllocF32("contrib", n)

	b := dig.NewBuilder()
	b.RegisterNode("inOffsetList", inOffsets.BaseAddr, uint64(n+1), 4, 0)
	b.RegisterNode("inEdgeList", inEdges.BaseAddr, uint64(len(g.InEdgeList)), 4, 1)
	b.RegisterNode("contrib", contrib.BaseAddr, uint64(n), 4, 2)
	b.RegisterNode("scores", scores.BaseAddr, uint64(n), 4, 3)
	b.RegisterNode("outDeg", outDeg.BaseAddr, uint64(n), 4, 4)
	b.RegisterTravEdge(inOffsets.BaseAddr, inEdges.BaseAddr, dig.Ranged)
	b.RegisterTravEdge(inEdges.BaseAddr, contrib.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(inOffsets.BaseAddr, dig.TriggerConfig{})
	// The contribution phase streams scores and outDeg sequentially;
	// stream trigger edges make Prodigy their stream prefetcher.
	b.RegisterTrigEdge(scores.BaseAddr, dig.TriggerConfig{})
	b.RegisterTrigEdge(outDeg.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		return nil, err
	}

	base := float32((1 - prDamping) / float64(n))
	softDist := 8
	gatherBounds := degreeBounds(inOffsets.Data, n, cores)

	run := func(tg *trace.Gen) {
		for i := range scores.Data {
			scores.Data[i] = 1 / float32(n)
		}
		for it := 0; it < prIters; it++ {
			// Phase 1: contributions (streaming).
			for c := 0; c < cores; c++ {
				lo, hi := chunk(n, cores, c)
				for v := lo; v < hi; v++ {
					tg.Load(c, prPCScore, scores.Addr(v))
					tg.Load(c, prPCOutDeg, outDeg.Addr(v))
					deg := outDeg.Data[v]
					if deg == 0 {
						deg = 1
					}
					contrib.Data[v] = scores.Data[v] / float32(deg)
					tg.FOps(c, prPCContrib, 1)
					tg.Store(c, prPCContrib, contrib.Addr(v))
				}
			}
			tg.Barrier()
			// Phase 2: gather (irregular), balanced by in-degree.
			for c := 0; c < cores; c++ {
				lo, hi := gatherBounds[c], gatherBounds[c+1]
				for v := lo; v < hi; v++ {
					tg.Load(c, prPCInOffLo, inOffsets.Addr(v))
					tg.Load(c, prPCInOffHi, inOffsets.Addr(v+1))
					eLo, eHi := inOffsets.Data[v], inOffsets.Data[v+1]
					var sum float32
					for w := eLo; w < eHi; w++ {
						tg.Load(c, prPCInEdge, inEdges.Addr(int(w)))
						u := inEdges.Data[w]
						if opts.SoftwarePrefetch && int(w)+softDist < len(inEdges.Data) {
							// The CGO'17 compiler inserts prefetches for the
							// index array and the indirect target.
							tg.SoftPrefetch(c, prPCSoftPF, inEdges.Addr(int(w)+softDist))
							tg.SoftPrefetch(c, prPCSoftPF, contrib.Addr(int(inEdges.Data[int(w)+softDist])))
						}
						tg.Load(c, prPCContribLd, contrib.Addr(int(u)))
						sum += contrib.Data[u]
						tg.FOps(c, prPCAccum, 1)
					}
					scores.Data[v] = base + prDamping*sum
					tg.FOps(c, prPCScoreSt, 1)
					tg.Store(c, prPCScoreSt, scores.Addr(v))
				}
			}
			tg.Barrier()
		}
	}

	verify := func() error {
		ref := refPageRank(g)
		for v := 0; v < n; v++ {
			if math.Abs(float64(scores.Data[v])-ref[v]) > 1e-4 {
				return fmt.Errorf("pr: vertex %d score %g, want %g", v, scores.Data[v], ref[v])
			}
		}
		return nil
	}

	return &Workload{
		Name: "pr", Dataset: dataset, Space: sp, DIG: d, Cores: cores,
		Run: run, Verify: verify,
	}, nil
}

// refPageRank is an independent float64 reference.
func refPageRank(g *graph.Graph) []float64 {
	n := g.NumNodes
	scores := make([]float64, n)
	contrib := make([]float64, n)
	for i := range scores {
		scores[i] = 1 / float64(n)
	}
	base := (1 - prDamping) / float64(n)
	for it := 0; it < prIters; it++ {
		for u := 0; u < n; u++ {
			deg := g.OutDegree(uint32(u))
			if deg == 0 {
				deg = 1
			}
			// Match the float32 kernel arithmetic closely enough for the
			// tolerance check.
			contrib[u] = float64(float32(scores[u]) / float32(deg))
		}
		for v := 0; v < n; v++ {
			var sum float64
			for w := g.InOffsetList[v]; w < g.InOffsetList[v+1]; w++ {
				sum += contrib[g.InEdgeList[w]]
			}
			scores[v] = base + prDamping*sum
		}
	}
	return scores
}
