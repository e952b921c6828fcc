package workloads

import (
	"fmt"

	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/trace"
)

// PC site IDs for sssp.
const (
	ssspPCWorkQ uint32 = iota + 400
	ssspPCDistU
	ssspPCOffLo
	ssspPCOffHi
	ssspPCEdge
	ssspPCWeight
	ssspPCDistV
	ssspPCBranch
	ssspPCRelax
	ssspPCEnq
	ssspPCLoop
)

const ssspInf = ^uint32(0)

// ssspMaxRounds bounds the frontier rounds. The algorithm terminates
// when no relaxations remain; this is a runaway bound, not a convergence
// knob.
const ssspMaxRounds = 4096

// buildSSSP constructs single-source shortest paths with a frontier work
// queue (the data-access shape of GAP's delta-stepping: queue of active
// vertices, ranged scan of edges and weights, relaxations into dist).
//
// DIG (6 nodes, 5 edges): workQ -w0-> offsetList; workQ -w0-> dist (the
// du read); offsetList -w1-> edgeList; offsetList -w1-> weights (parallel
// arrays share the ranged source); edgeList -w0-> dist; trigger on workQ.
// inNext is registered as a coverage-only node: the kernel only rarely
// stores to it (no loads), so prefetching it is pure bandwidth waste.
func buildSSSP(dataset string, cores int, opts Options) (*Workload, error) {
	g, err := loadGraph(dataset, "weighted", opts)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes
	src := g.MaxDegreeVertex()

	sp := memspace.New()
	// The work queue is reused round-robin; cap its size generously.
	qcap := 4 * n
	workQ := sp.AllocU32("workQueue", qcap)
	offsets, edges := allocCSR(sp, g)
	weights := sp.AllocU32("weights", g.NumEdges())
	copy(weights.Data, g.Weights)
	dist := sp.AllocU32("dist", n)
	inNext := sp.AllocU32("inNext", n)

	b := dig.NewBuilder()
	b.RegisterNode("workQueue", workQ.BaseAddr, uint64(qcap), 4, 0)
	b.RegisterNode("offsetList", offsets.BaseAddr, uint64(n+1), 4, 1)
	b.RegisterNode("edgeList", edges.BaseAddr, uint64(g.NumEdges()), 4, 2)
	b.RegisterNode("weights", weights.BaseAddr, uint64(g.NumEdges()), 4, 3)
	b.RegisterNode("dist", dist.BaseAddr, uint64(n), 4, 4)
	b.RegisterNode("inNext", inNext.BaseAddr, uint64(n), 4, 5)
	b.RegisterTravEdge(workQ.BaseAddr, offsets.BaseAddr, dig.SingleValued)
	b.RegisterTravEdge(workQ.BaseAddr, dist.BaseAddr, dig.SingleValued)
	b.RegisterTravEdge(offsets.BaseAddr, edges.BaseAddr, dig.Ranged)
	b.RegisterTravEdge(offsets.BaseAddr, weights.BaseAddr, dig.Ranged)
	b.RegisterTravEdge(edges.BaseAddr, dist.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(workQ.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		return nil, err
	}

	run := func(tg *trace.Gen) {
		for v := range dist.Data {
			dist.Data[v] = ssspInf
			inNext.Data[v] = 0
		}
		dist.Data[src] = 0
		workQ.Data[0] = src
		qStart, qEnd := 0, 1

		for round := 0; qStart < qEnd && round < ssspMaxRounds; round++ {
			span := qEnd - qStart
			newEnd := qEnd
			bounds := balancedBounds(span, cores, func(i int) int {
				u := workQ.Data[(qStart+i)%qcap]
				return int(offsets.Data[u+1]-offsets.Data[u]) + 1
			})
			for c := 0; c < cores; c++ {
				lo, hi := bounds[c], bounds[c+1]
				for i := qStart + lo; i < qStart+hi; i++ {
					qi := i % qcap
					tg.Load(c, ssspPCWorkQ, workQ.Addr(qi))
					u := workQ.Data[qi]
					inNext.Data[u] = 0
					tg.Load(c, ssspPCDistU, dist.Addr(int(u)))
					du := dist.Data[u]
					tg.Load(c, ssspPCOffLo, offsets.Addr(int(u)))
					tg.Load(c, ssspPCOffHi, offsets.Addr(int(u)+1))
					eLo, eHi := offsets.Data[u], offsets.Data[u+1]
					for w := eLo; w < eHi; w++ {
						tg.Load(c, ssspPCEdge, edges.Addr(int(w)))
						v := edges.Data[w]
						tg.Load(c, ssspPCWeight, weights.Addr(int(w)))
						wt := weights.Data[w]
						tg.Load(c, ssspPCDistV, dist.Addr(int(v)))
						relax := du != ssspInf && du+wt < dist.Data[v]
						tg.Branch(c, ssspPCBranch, relax, true)
						if relax {
							tg.Atomic(c, ssspPCRelax, dist.Addr(int(v)))
							dist.Data[v] = du + wt
							if inNext.Data[v] == 0 && newEnd-qStart < qcap-1 {
								inNext.Data[v] = 1
								tg.Store(c, ssspPCEnq, workQ.Addr(newEnd%qcap))
								workQ.Data[newEnd%qcap] = v
								newEnd++
							}
						}
						tg.Ops(c, ssspPCLoop, 1)
					}
				}
			}
			qStart, qEnd = qEnd, newEnd
			tg.Barrier()
		}
	}

	verify := func() error {
		ref := refDijkstra(g, src)
		for v := 0; v < n; v++ {
			if dist.Data[v] != ref[v] {
				return fmt.Errorf("sssp: vertex %d dist %d, want %d", v, dist.Data[v], ref[v])
			}
		}
		return nil
	}

	return &Workload{
		Name: "sssp", Dataset: dataset, Space: sp, DIG: d, Cores: cores,
		Run: run, Verify: verify,
	}, nil
}

// refDijkstra is an independent reference (binary-heap Dijkstra).
func refDijkstra(g *graph.Graph, src uint32) []uint32 {
	n := g.NumNodes
	distv := make([]uint32, n)
	for i := range distv {
		distv[i] = ssspInf
	}
	distv[src] = 0
	type item struct {
		d uint32
		v uint32
	}
	h := []item{{0, src}}
	push := func(it item) {
		h = append(h, it)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p].d <= h[i].d {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() item {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && h[l].d < h[s].d {
				s = l
			}
			if r < len(h) && h[r].d < h[s].d {
				s = r
			}
			if s == i {
				break
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
		return top
	}
	for len(h) > 0 {
		it := pop()
		if it.d > distv[it.v] {
			continue
		}
		base := g.OffsetList[it.v]
		for k, v := range g.Neighbors(it.v) {
			nd := it.d + g.Weights[int(base)+k]
			if nd < distv[v] {
				distv[v] = nd
				push(item{nd, v})
			}
		}
	}
	return distv
}
