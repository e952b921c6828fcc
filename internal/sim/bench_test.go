package sim

import (
	"testing"

	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
)

// BenchmarkPrefetchIssueProcess exercises the engine's prefetch fast
// path: issue a batch of line prefetches, then drain the event heap. The
// pfEvent free pool and the per-core line-indexed inflight maps keep the
// steady state free of per-event allocation.
func BenchmarkPrefetchIssueProcess(b *testing.B) {
	space := memspace.New()
	space.AllocU32("a", 1<<16)
	m := mustMachine(b, Default(1), space, trace.NewGen(1, 0))
	line := uint64(m.cfg.Cache.LineSize)
	const batch = 64 // stay under the per-core MSHR cap between drains
	b.ReportAllocs()
	b.ResetTimer()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		m.issuePrefetch(0, addr, prefetch.UntrackedMeta)
		addr += line
		if i%batch == batch-1 {
			m.now += 1 << 20
			m.processEvents(m.now)
		}
	}
	m.processEvents(m.now + (1 << 40))
}
