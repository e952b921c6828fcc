package core

import (
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
)

// walkVertices is the BFS graph's vertex count.
const walkVertices = 1 << 12

// walkBench is BenchmarkProdigyWalk's prefetcher on a BFS work queue
// with the fake machine around it: the PFHR file, the node tables and
// the delivery queue are preallocated.
type walkBench struct {
	p     *Prodigy
	workQ *memspace.U32
	// pending holds the tracked requests queued for delivery; its
	// capacity bounds one op's walk, and a request beyond it is refused
	// like an MSHR-full drop rather than grown.
	pending []uint32
}

func newWalkBench(tb testing.TB) *walkBench {
	const nv, degree = walkVertices, 8
	s := memspace.New()
	workQ := s.AllocU32("workQ", nv)
	offsets := s.AllocU32("offsets", nv+1)
	edges := s.AllocU32("edges", nv*degree)
	visited := s.AllocU32("visited", nv)
	for i := range offsets.Data {
		offsets.Data[i] = uint32(degree * i)
	}
	for i := range edges.Data {
		edges.Data[i] = uint32((i * 2654435761) % nv)
	}
	for i := range workQ.Data {
		workQ.Data[i] = uint32((i * 40503) % nv)
	}
	bld := dig.NewBuilder()
	bld.RegisterNode("workQ", workQ.BaseAddr, nv, 4, 0)
	bld.RegisterNode("offsets", offsets.BaseAddr, nv+1, 4, 1)
	bld.RegisterNode("edges", edges.BaseAddr, nv*degree, 4, 2)
	bld.RegisterNode("visited", visited.BaseAddr, nv, 4, 3)
	bld.RegisterTravEdge(workQ.BaseAddr, offsets.BaseAddr, dig.SingleValued)
	bld.RegisterTravEdge(offsets.BaseAddr, edges.BaseAddr, dig.Ranged)
	bld.RegisterTravEdge(edges.BaseAddr, visited.BaseAddr, dig.SingleValued)
	bld.RegisterTrigEdge(workQ.BaseAddr, dig.TriggerConfig{})
	d, err := bld.Build()
	if err != nil {
		tb.Fatal(err)
	}

	w := &walkBench{workQ: workQ, pending: make([]uint32, 0, 1<<12)}
	env := prefetch.Env{
		LineSize: 64,
		Probe:    func(uint64) cache.Level { return cache.LvlNone },
		Read:     s.ReadAt,
		IssueAt: func(_ uint64, meta uint32, _ cache.Level) bool {
			if meta == prefetch.UntrackedMeta {
				return true
			}
			if len(w.pending) == cap(w.pending) {
				return false
			}
			w.pending = append(w.pending, meta)
			return true
		},
	}
	w.p = NewPrefetcher(env, d, DefaultConfig())
	return w
}

// op is op i: one demand on the work queue starts a prefetch sequence,
// and every tracked fill is delivered at once, so the op runs the
// trigger request, the single-valued hop into the offsets, the ranged
// expansion into the edge list and the single-valued hop into the
// (leaf) visited array.
func (w *walkBench) op(i int) {
	w.p.OnDemand(0, 1, w.workQ.Addr(i%walkVertices), cache.LvlL1)
	for j := 0; j < len(w.pending); j++ {
		w.p.OnFill(0, 0, w.pending[j], cache.LvlMem)
	}
	w.pending = w.pending[:0]
}

// checkEdges fails tb unless the walk reached every edge kind.
func (w *walkBench) checkEdges(tb testing.TB) {
	if st := w.p.Stats; st.IssuedRanged == 0 || st.IssuedSingle == 0 || st.LinesRanged == 0 {
		tb.Fatalf("walk did not reach every edge kind: %+v", st)
	}
}

// BenchmarkProdigyWalk measures the DIG walk per trigger (walkBench.op).
// The walk must stay at 0 allocs/op (TestProdigyWalkAllocFree).
func BenchmarkProdigyWalk(b *testing.B) {
	w := newWalkBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.op(i)
	}
	b.StopTimer()
	w.checkEdges(b)
}

// TestProdigyWalkAllocFree pins BenchmarkProdigyWalk's 0 allocs/op: after
// a warm-up, a run of walks allocates nothing.
func TestProdigyWalkAllocFree(t *testing.T) {
	w := newWalkBench(t)
	i := 0
	if allocs := testing.AllocsPerRun(1, func() {
		for end := i + 256; i < end; i++ {
			w.op(i)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations in 256 walks, want 0", allocs)
	}
	w.checkEdges(t)
}
