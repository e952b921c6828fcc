package workloads

import (
	"fmt"

	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/trace"
)

// PC site IDs for cc.
const (
	ccPCOffLo uint32 = iota + 300
	ccPCOffHi
	ccPCEdge
	ccPCCompU
	ccPCCompV
	ccPCBranch
	ccPCStore
	ccPCLoop
)

// ccMaxRounds bounds the min-label rounds; the kernel normally stops
// earlier, at its fixpoint.
const ccMaxRounds = 50

// buildCC constructs connected components by label propagation over the
// symmetrized CSR (Shiloach-Vishkin-style min-label rounds, the
// data-access shape of GAP's cc): each round sweeps all vertices, reads
// neighbor labels through the edge list, and lowers its own label; rounds
// repeat until a fixpoint.
//
// DIG: offsetList -w1-> edgeList -w0-> comp, trigger on offsetList.
func buildCC(dataset string, cores int, opts Options) (*Workload, error) {
	g, err := loadGraph(dataset, "undir", opts)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes

	sp := memspace.New()
	offsets, edges := allocCSR(sp, g)
	comp := sp.AllocU32("comp", n)

	b := dig.NewBuilder()
	b.RegisterNode("offsetList", offsets.BaseAddr, uint64(n+1), 4, 0)
	b.RegisterNode("edgeList", edges.BaseAddr, uint64(g.NumEdges()), 4, 1)
	b.RegisterNode("comp", comp.BaseAddr, uint64(n), 4, 2)
	b.RegisterTravEdge(offsets.BaseAddr, edges.BaseAddr, dig.Ranged)
	b.RegisterTravEdge(edges.BaseAddr, comp.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(offsets.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		return nil, err
	}

	vertexBounds := degreeBounds(offsets.Data, n, cores)

	run := func(tg *trace.Gen) {
		for v := range comp.Data {
			comp.Data[v] = uint32(v)
		}
		for it := 0; it < ccMaxRounds; it++ {
			changed := false
			for c := 0; c < cores; c++ {
				lo, hi := vertexBounds[c], vertexBounds[c+1]
				for v := lo; v < hi; v++ {
					tg.Load(c, ccPCOffLo, offsets.Addr(v))
					tg.Load(c, ccPCOffHi, offsets.Addr(v+1))
					eLo, eHi := offsets.Data[v], offsets.Data[v+1]
					tg.Load(c, ccPCCompV, comp.Addr(v))
					cv := comp.Data[v]
					for w := eLo; w < eHi; w++ {
						tg.Load(c, ccPCEdge, edges.Addr(int(w)))
						u := edges.Data[w]
						tg.Load(c, ccPCCompU, comp.Addr(int(u)))
						cu := comp.Data[u]
						tg.Branch(c, ccPCBranch, cu < cv, true)
						if cu < cv {
							cv = cu
							changed = true
						}
						tg.Ops(c, ccPCLoop, 1)
					}
					if cv != comp.Data[v] {
						tg.Store(c, ccPCStore, comp.Addr(v))
						comp.Data[v] = cv
					}
				}
			}
			tg.Barrier()
			if !changed {
				break
			}
		}
	}

	verify := func() error {
		ref := refComponents(g)
		// comp labels must induce the same partition: same-component pairs
		// share labels; the propagated label is the component minimum.
		seen := map[uint32]uint32{} // refRoot -> comp label
		for v := 0; v < n; v++ {
			r := ref[v]
			if want, ok := seen[r]; ok {
				if comp.Data[v] != want {
					return fmt.Errorf("cc: vertex %d label %d, want %d", v, comp.Data[v], want)
				}
			} else {
				seen[r] = comp.Data[v]
			}
		}
		// Distinct components must have distinct labels.
		labels := map[uint32]bool{}
		//lint:allow determinism verify-only duplicate check; any visit order finds the same duplicates
		for _, l := range seen {
			if labels[l] {
				return fmt.Errorf("cc: two components share label %d", l)
			}
			labels[l] = true
		}
		return nil
	}

	return &Workload{
		Name: "cc", Dataset: dataset, Space: sp, DIG: d, Cores: cores,
		Run: run, Verify: verify,
	}, nil
}

// refComponents computes per-vertex component roots by union-find.
func refComponents(g *graph.Graph) []uint32 {
	parent := make([]uint32, g.NumNodes)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < g.NumNodes; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			ru, rv := find(uint32(u)), find(v)
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	out := make([]uint32, g.NumNodes)
	for v := range out {
		out[v] = find(uint32(v))
	}
	return out
}
