package dram

import "testing"

func TestUnloadedLatency(t *testing.T) {
	c := New(Default())
	if got := c.Request(1000); got != 1000+120 {
		t.Fatalf("unloaded completion = %d, want 1120", got)
	}
	if c.Stats.TotalQueueDelay != 0 {
		t.Error("unloaded request should have no queue delay")
	}
}

func TestQueuingUnderBursts(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 4})
	// Three simultaneous requests: completions must be spaced by the
	// service interval.
	a := c.Request(0)
	b := c.Request(0)
	d := c.Request(0)
	if a != 100 || b != 104 || d != 108 {
		t.Fatalf("completions = %d %d %d, want 100 104 108", a, b, d)
	}
	if c.Stats.TotalQueueDelay != 0+4+8 {
		t.Fatalf("queue delay = %d, want 12", c.Stats.TotalQueueDelay)
	}
	if c.Stats.Requests != 3 || c.Stats.TotalQueueDelay/c.Stats.Requests != 4 {
		t.Fatalf("avg queue delay = %d/%d, want 4", c.Stats.TotalQueueDelay, c.Stats.Requests)
	}
}

func TestPipeDrains(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 4})
	c.Request(0)
	// Much later, the pipe is free again.
	if got := c.Request(1000); got != 1100 {
		t.Fatalf("completion = %d, want 1100", got)
	}
}

func TestWritesConsumeBandwidth(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 4})
	c.Write(0)
	// The write's slot [0,4) is already in service when the demand
	// arrives, so the demand takes the next slot — it must not share the
	// write's slot (that would double-book the pipe).
	if got := c.Request(0); got != 104 {
		t.Fatalf("demand after write completes at %d, want 104", got)
	}
	// Prefetches queue behind both the write and the demand.
	if got := c.RequestPrefetch(0); got != 108 {
		t.Fatalf("prefetch after write completes at %d, want 108", got)
	}
	if c.Stats.Writes != 1 {
		t.Error("write not counted")
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 4})
	// A burst of queued prefetches books slots [0,4) .. [36,40). A demand
	// arriving at 0 waits only for the in-service slot [0,4) — the nine
	// queued prefetch slots are displaced behind it, not ahead of it.
	for i := 0; i < 10; i++ {
		c.RequestPrefetch(0)
	}
	if got := c.Request(0); got != 104 {
		t.Fatalf("demand behind prefetch burst completes at %d, want 104", got)
	}
	// The displaced burst now ends at 44; the next prefetch takes [44,48).
	if got := c.RequestPrefetch(0); got != 144 {
		t.Fatalf("prefetch completes at %d, want 144", got)
	}
}

// TestNoSameCycleDoubleBooking is the regression test for the dual-cursor
// bug: a prefetch and a demand arriving in the same cycle must consume
// two distinct service slots. Pre-fix, the demand cursor ignored the
// prefetch's booking and both requests started at cycle 0.
func TestNoSameCycleDoubleBooking(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 4})
	pf := c.RequestPrefetch(0) // slot [0,4), in service immediately
	d := c.Request(0)          // must take [4,8)
	if pf != 100 {
		t.Fatalf("prefetch completes at %d, want 100", pf)
	}
	if d != 104 {
		t.Fatalf("same-cycle demand completes at %d, want 104 (distinct slot)", d)
	}
}

// TestSlotInvariants drives op sequences through the controller and pins
// the scheduling invariants: every request gets its own slot, demands are
// delayed by queued low-priority traffic by at most one service interval,
// and booked bandwidth never exceeds one slot per interval.
func TestSlotInvariants(t *testing.T) {
	const (
		demand = iota
		prefetch
		write
	)
	type op struct {
		kind int
		now  int64
	}
	cases := []struct {
		name string
		ops  []op
		// wantStart is the expected slot start per op (completion minus
		// AccessLat; -1 for writes, which return nothing).
		wantStart []int64
	}{
		{
			name:      "demand then same-cycle prefetch",
			ops:       []op{{demand, 0}, {prefetch, 0}},
			wantStart: []int64{0, 4},
		},
		{
			name:      "prefetch then same-cycle demand",
			ops:       []op{{prefetch, 0}, {demand, 0}},
			wantStart: []int64{0, 4},
		},
		{
			name: "queued prefetches never delay a demand beyond one slot",
			ops: []op{
				{prefetch, 0}, {prefetch, 0}, {prefetch, 0}, {prefetch, 0},
				{demand, 5},
			},
			// Slot [4,8) is in service at 5; the demand takes [8,12) while
			// queued slots [8,12) and [12,16) are displaced to [12,16),[16,20).
			wantStart: []int64{0, 4, 8, 12, 8},
		},
		{
			name: "displaced prefetch backlog stays behind a demand train",
			ops: []op{
				{prefetch, 0}, {prefetch, 0}, {prefetch, 0},
				{demand, 0}, {demand, 0},
				{prefetch, 0},
			},
			// Prefetch slots [0,4),[4,8),[8,12); demand one takes [4,8)
			// displacing the queue to [8,12),[12,16); demand two takes
			// [8,12) displacing it to [12,16),[16,20); the new prefetch
			// appends at [20,24).
			wantStart: []int64{0, 4, 8, 4, 8, 20},
		},
		{
			name:      "idle gap: queued-far-ahead traffic cannot block a demand",
			ops:       []op{{write, 0}, {prefetch, 0}, {demand, 100}},
			wantStart: []int64{-1, 4, 100},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{AccessLat: 100, ServiceInterval: 4})
			var prevDemandEnd int64
			for i, o := range tc.ops {
				var start int64 = -1
				switch o.kind {
				case demand:
					start = c.Request(o.now) - 100
				case prefetch:
					start = c.RequestPrefetch(o.now) - 100
				case write:
					c.Write(o.now)
				}
				if start != tc.wantStart[i] {
					t.Fatalf("op %d: slot start = %d, want %d", i, start, tc.wantStart[i])
				}
				if o.kind == demand {
					if start-o.now >= 2*4 && start >= prevDemandEnd+4 {
						t.Fatalf("op %d: demand delayed %d cycles by low-priority traffic (max is one slot)", i, start-o.now)
					}
					prevDemandEnd = start + 4
				}
			}
			// Booked bandwidth can never exceed one line per service slot.
			if int64(c.Stats.BusyCycles) > c.pfFree && int64(c.Stats.BusyCycles) > c.demandTail {
				t.Fatalf("busy cycles %d exceed the booked horizon (demandTail=%d pfFree=%d): slots overlap",
					c.Stats.BusyCycles, c.demandTail, c.pfFree)
			}
		})
	}
}

func TestUtilization(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 2})
	for i := 0; i < 50; i++ {
		c.Request(0)
	}
	if got := c.Utilization(200); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := c.Utilization(50); got != 1 {
		t.Fatalf("utilization should clamp to 1, got %v", got)
	}
	if c.Utilization(0) != 0 {
		t.Error("zero elapsed should be 0")
	}
}

func TestPromoteDoesNotConsumeBandwidth(t *testing.T) {
	c := New(Config{AccessLat: 100, ServiceInterval: 4})
	before := c.Stats
	if got := c.Promote(10); got != 110 {
		t.Fatalf("promote completion = %d, want 110", got)
	}
	if c.Stats != before {
		t.Fatal("promotion changed controller state")
	}
	// A demand queued first pushes the promotion estimate out.
	c.Request(10)
	if got := c.Promote(10); got != 114 {
		t.Fatalf("promote behind demand = %d, want 114", got)
	}
	// But subsequent demands are unaffected by promotions.
	if got := c.Request(10); got != 114 {
		t.Fatalf("demand = %d, want 114", got)
	}
}
