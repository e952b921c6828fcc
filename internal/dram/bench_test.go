package dram

import "testing"

// BenchmarkControllerRequest measures demand-read scheduling with a
// realistic share of low-priority traffic interleaved, so the slot
// displacement logic is on the measured path.
func BenchmarkControllerRequest(b *testing.B) {
	c := New(Default())
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		if i&3 == 0 {
			c.RequestPrefetch(now)
		} else {
			c.Request(now)
		}
		now += 2
	}
}

// BenchmarkControllerBacklog measures scheduling against a standing
// low-priority backlog of about 300 slots at the default ServiceInterval,
// the ~650-cycle queue delay of a paper-scale Prodigy run: a demand and a
// prefetch arrive every 4 cycles, exactly filling the pipe, so the
// backlog neither drains nor grows and every demand displaces all of it.
func BenchmarkControllerBacklog(b *testing.B) {
	const backlog = 300
	c := New(Default())
	for i := 0; i < backlog; i++ {
		c.RequestPrefetch(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			c.RequestPrefetch(now)
		} else {
			c.Request(now)
			now += 4
		}
	}
	b.StopTimer()
	if d := c.queueDepth(now); d < backlog-2 || d > backlog+2 {
		b.Fatalf("backlog drifted to %v slots, want about %d", d, backlog)
	}
}
