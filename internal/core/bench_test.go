package core

import (
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
)

// BenchmarkProdigyWalk measures the DIG walk per trigger: one demand on a
// BFS work queue starts a prefetch sequence, and every tracked fill is
// delivered at once, so each op runs the trigger request, the
// single-valued hop into the offsets, the ranged expansion into the edge
// list and the single-valued hop into the (leaf) visited array. The PFHR
// file, the node tables and the fake machine are preallocated, so the
// walk must stay at 0 allocs/op.
func BenchmarkProdigyWalk(b *testing.B) {
	const nv, degree = 1 << 12, 8
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
		b.Fatal(err)
	}

	// Tracked requests queue up for delivery; the queue's capacity bounds
	// one op's walk, and a request beyond it is refused like an MSHR-full
	// drop rather than grown.
	pending := make([]uint32, 0, 1<<12)
	env := prefetch.Env{
		LineSize: 64,
		Probe:    func(uint64) cache.Level { return cache.LvlNone },
		Read:     s.ReadAt,
		IssueAt: func(_ uint64, meta uint32, _ cache.Level) bool {
			if meta == prefetch.UntrackedMeta {
				return true
			}
			if len(pending) == cap(pending) {
				return false
			}
			pending = append(pending, meta)
			return true
		},
	}
	p := NewPrefetcher(env, d, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnDemand(0, 1, workQ.Addr(i%nv), cache.LvlL1)
		for j := 0; j < len(pending); j++ {
			p.OnFill(0, 0, pending[j], cache.LvlMem)
		}
		pending = pending[:0]
	}
	b.StopTimer()
	if p.Stats.IssuedRanged == 0 || p.Stats.IssuedSingle == 0 || p.Stats.LinesRanged == 0 {
		b.Fatalf("walk did not reach every edge kind: %+v", p.Stats)
	}
}
