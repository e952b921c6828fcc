package sim

import (
	"testing"

	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
)

// issueBatch is how many prefetches issueProcessOp issues between
// drains: it stays under the per-core MSHR cap.
const issueBatch = 64

// newIssueMachine returns the one-core machine that issueProcessOp
// drives.
func newIssueMachine(tb testing.TB) *Machine {
	space := memspace.New()
	space.AllocU32("a", 1<<16)
	return mustMachine(tb, Default(1), space, trace.NewGen(1, 0))
}

// issueProcessOp is op i of BenchmarkPrefetchIssueProcess: issue a
// prefetch of line i, and after every issueBatch of them drain the event
// heap.
func issueProcessOp(m *Machine, i int) {
	m.issuePrefetch(0, uint64(i)*uint64(m.cfg.Cache.LineSize), prefetch.UntrackedMeta)
	if i%issueBatch == issueBatch-1 {
		m.now += 1 << 20
		m.processEvents(m.now)
	}
}

// BenchmarkPrefetchIssueProcess exercises the engine's prefetch fast
// path (issueProcessOp). The pfEvent free pool and the per-core
// line-indexed inflight maps keep the steady state free of per-event
// allocation (TestPrefetchIssueAllocFree).
func BenchmarkPrefetchIssueProcess(b *testing.B) {
	m := newIssueMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issueProcessOp(m, i)
	}
	m.processEvents(m.now + (1 << 40))
}

// TestPrefetchIssueAllocFree pins BenchmarkPrefetchIssueProcess's 0
// allocs/op: after a warm-up fills the event pool, a run of its ops
// allocates nothing.
func TestPrefetchIssueAllocFree(t *testing.T) {
	m := newIssueMachine(t)
	i := 0
	if allocs := testing.AllocsPerRun(1, func() {
		for end := i + 64*issueBatch; i < end; i++ {
			issueProcessOp(m, i)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations in %d ops, want 0", allocs, 64*issueBatch)
	}
}
