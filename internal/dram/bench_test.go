package dram

import "testing"

// requestOp is op i of BenchmarkControllerRequest: a request every 2
// cycles, one in four of them a low-priority prefetch.
func requestOp(c *Controller, i int) {
	now := int64(2 * i)
	if i&3 == 0 {
		c.RequestPrefetch(now)
	} else {
		c.Request(now)
	}
}

// BenchmarkControllerRequest measures demand-read scheduling with a
// realistic share of low-priority traffic interleaved, so the slot
// displacement logic is on the measured path.
func BenchmarkControllerRequest(b *testing.B) {
	c := New(Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requestOp(c, i)
	}
}

// backlog is the standing low-priority backlog, in slots, that
// newBacklog queues for BenchmarkControllerBacklog.
const backlog = 300

// newBacklog returns a controller with backlog prefetches queued at
// cycle 0.
func newBacklog() *Controller {
	c := New(Default())
	for i := 0; i < backlog; i++ {
		c.RequestPrefetch(0)
	}
	return c
}

// backlogOp is op i against newBacklog's controller: a demand and a
// prefetch arrive every 4 cycles, exactly filling the pipe at the default
// ServiceInterval, so the backlog neither drains nor grows and every
// demand displaces all of it.
func backlogOp(c *Controller, i int) {
	if now := backlogNow(i); i&1 == 0 {
		c.RequestPrefetch(now)
	} else {
		c.Request(now)
	}
}

// backlogNow is the cycle after n backlog ops.
func backlogNow(n int) int64 { return int64(4 * (n / 2)) }

// BenchmarkControllerBacklog measures scheduling against a standing
// backlog of about 300 slots, the ~650-cycle queue delay of a
// paper-scale Prodigy run.
func BenchmarkControllerBacklog(b *testing.B) {
	c := newBacklog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backlogOp(c, i)
	}
	b.StopTimer()
	if d := c.queueDepth(backlogNow(b.N)); d < backlog-2 || d > backlog+2 {
		b.Fatalf("backlog drifted to %v slots, want about %d", d, backlog)
	}
}

// TestControllerAllocFree pins the two controller benchmarks' 0
// allocs/op. Demand scheduling allocates nothing after a warm-up. The
// backlog's set-up may allocate, so a run of 4n backlog ops must
// allocate exactly what a run of n does.
func TestControllerAllocFree(t *testing.T) {
	c := New(Default())
	i := 0
	if allocs := testing.AllocsPerRun(1, func() {
		for end := i + 4096; i < end; i++ {
			requestOp(c, i)
		}
	}); allocs != 0 {
		t.Errorf("ControllerRequest: %v allocations in 4096 ops, want 0", allocs)
	}

	backlogRun := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			c := newBacklog()
			for i := 0; i < n; i++ {
				backlogOp(c, i)
			}
		})
	}
	if short, long := backlogRun(4096), backlogRun(4*4096); long != short {
		t.Errorf("ControllerBacklog: %v allocations with 16384 ops, %v with 4096, want the same", long, short)
	}
}
