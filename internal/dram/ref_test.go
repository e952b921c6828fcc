package dram

import "prodigy/internal/obs"

// refController is the slice-backed low-priority queue that Controller's
// gap encoding replaced. It is retained verbatim (minus Attach, whose two
// gauge closures are kept as the backlog and queueDepth methods so tests
// can read them) as the oracle for the differential tests in
// controller_test.go: every demand walks the queued slots and adds
// ServiceInterval to each one it cascades into, which is O(queue length)
// per demand. The gap-encoded queue must return the same completion
// cycles, Stats, queue depth and pipe cursors after every operation.
type refController struct {
	cfg Config
	// demandTail is the end of the last demand service slot.
	demandTail int64
	// lp holds the start cycles of low-priority slots not yet in service
	// (a FIFO; lpHead indexes its logical front). Entries are discarded as
	// simulated time passes them.
	lp     []int64
	lpHead int
	// serviceEnd is the end of the most recent low-priority slot known to
	// have entered service — the non-preemptible occupancy a demand must
	// respect.
	serviceEnd int64
	// pfFree is the end of the last booked low-priority slot (the next
	// low-priority append point).
	pfFree int64
	Stats  Stats

	obs     *obs.Recorder
	busyID  obs.CounterID
	delayID obs.CounterID
}

// newRef builds a reference controller.
func newRef(cfg Config) *refController {
	return &refController{cfg: cfg}
}

// backlog and queueDepth are the bodies of the "dram.backlog" and
// "dram.queue_depth" gauges that Attach registers.
func (c *refController) backlog(cycle int64) float64 {
	b := c.demandTail
	if c.pfFree > b {
		b = c.pfFree
	}
	if b -= cycle; b < 0 {
		b = 0
	}
	return float64(b)
}

func (c *refController) queueDepth(cycle int64) float64 {
	c.advance(cycle)
	return float64(len(c.lp) - c.lpHead)
}

// advance retires every low-priority slot that has entered service by
// cycle now. It is monotone and idempotent per cycle.
func (c *refController) advance(now int64) {
	for c.lpHead < len(c.lp) && c.lp[c.lpHead] <= now {
		c.serviceEnd = c.lp[c.lpHead] + c.cfg.ServiceInterval
		c.lpHead++
	}
	if c.lpHead == len(c.lp) {
		c.lp = c.lp[:0]
		c.lpHead = 0
	}
}

// book records one service slot starting at start for the stats and the
// interval metrics.
func (c *refController) book(start int64) {
	c.Stats.BusyCycles += uint64(c.cfg.ServiceInterval)
	c.obs.AddAt(c.busyID, start, uint64(c.cfg.ServiceInterval))
}

// Request enqueues a high-priority demand read arriving at cycle now and
// returns the cycle at which data is available. The demand waits for
// earlier demands and for the low-priority slot already in service, never
// for low-priority slots still queued — those are displaced behind it.
func (c *refController) Request(now int64) int64 {
	c.advance(now)
	start := now
	if c.demandTail > start {
		start = c.demandTail
	}
	if c.serviceEnd > start {
		start = c.serviceEnd
	}
	c.demandTail = start + c.cfg.ServiceInterval
	// Displace queued low-priority slots that the demand's slot now
	// overlaps; back-to-back neighbours cascade.
	bound := c.demandTail
	for i := c.lpHead; i < len(c.lp); i++ {
		if c.lp[i] >= bound {
			break
		}
		c.lp[i] += c.cfg.ServiceInterval
		bound = c.lp[i] + c.cfg.ServiceInterval
		if i == len(c.lp)-1 {
			c.pfFree = bound
		}
	}
	if c.lpHead == len(c.lp) && c.pfFree < c.demandTail {
		c.pfFree = c.demandTail
	}
	c.Stats.Requests++
	c.Stats.TotalQueueDelay += uint64(start - now)
	c.book(start)
	c.obs.AddAt(c.delayID, now, uint64(start-now))
	return start + c.cfg.AccessLat
}

// RequestPrefetch enqueues a low-priority prefetch read arriving at cycle
// now; it is served only with bandwidth demands leave over.
func (c *refController) RequestPrefetch(now int64) int64 {
	c.advance(now)
	start := c.lowPriorityStart(now)
	c.Stats.Requests++
	c.Stats.TotalQueueDelay += uint64(start - now)
	c.book(start)
	c.obs.AddAt(c.delayID, now, uint64(start-now))
	return start + c.cfg.AccessLat
}

// lowPriorityStart books the next low-priority slot for an arrival at now
// and returns its start cycle.
func (c *refController) lowPriorityStart(now int64) int64 {
	start := now
	if c.pfFree > start {
		start = c.pfFree
	}
	c.lp = append(c.lp, start)
	c.pfFree = start + c.cfg.ServiceInterval
	return start
}

// Promote returns the completion time a demand-priority request arriving
// at cycle now would get, without consuming bandwidth: used when a demand
// merges with an in-flight prefetch (MSHR promotion) — the line transfer
// is already booked on the prefetch pipe, only its priority changes.
func (c *refController) Promote(now int64) int64 {
	c.advance(now)
	start := now
	if c.demandTail > start {
		start = c.demandTail
	}
	if c.serviceEnd > start {
		start = c.serviceEnd
	}
	return start + c.cfg.AccessLat
}

// Write enqueues a writeback arriving at cycle now. Writebacks occupy
// low-priority bandwidth but nobody waits on them.
func (c *refController) Write(now int64) {
	c.advance(now)
	start := c.lowPriorityStart(now)
	c.Stats.Writes++
	c.book(start)
}
