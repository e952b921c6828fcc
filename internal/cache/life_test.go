package cache

import (
	"io"
	"testing"

	"prodigy/internal/obs"
)

// TestLifeCrossCoreUse: a line one core prefetched from DRAM and another
// core demands first from the L3 is one DRAM-serviced fill and one
// timely use of it, even after the issuer hits its own prefetched copy;
// a demand miss counts wherever it happens.
func TestLifeCrossCoreUse(t *testing.T) {
	h := mustNew(t, tinyConfig(2))
	h.FillPrefetch(1, 0, LvlMem)
	if h.Stats.PrefetchFills != 1 || h.Stats.PrefetchFillsMem != 1 {
		t.Fatalf("fills/fillsMem = %d/%d, want 1/1", h.Stats.PrefetchFills, h.Stats.PrefetchFillsMem)
	}
	if res := h.Access(0, 0, false); res.Level != LvlL3 {
		t.Fatalf("core 0's first use level = %v, want L3", res.Level)
	}
	if h.Stats.PrefetchL3Hits != 1 || h.Stats.PrefetchTimelyMem != 1 {
		t.Fatalf("L3 timely/timelyMem = %d/%d, want 1/1", h.Stats.PrefetchL3Hits, h.Stats.PrefetchTimelyMem)
	}
	// The first use consumed the fill, so core 1's later hit on its own
	// copy is not a second timely use.
	if res := h.Access(1, 0, false); res.Level != LvlL1 {
		t.Fatalf("core 1's hit level = %v, want L1", res.Level)
	}
	if got := timely(h); got != 1 || h.Stats.PrefetchTimelyMem != 1 {
		t.Fatalf("timely = %d (mem %d) after the issuer's hit, want 1 (1): one fill, one use", got, h.Stats.PrefetchTimelyMem)
	}
	h.Access(0, 1<<20, false)
	if h.Stats.DemandMem != 1 {
		t.Fatalf("demand misses = %d, want 1", h.Stats.DemandMem)
	}
}

// TestLifeFirstUseOnly: only the first demand to a prefetched line counts
// as the timely outcome; re-hits must not inflate the class.
func TestLifeFirstUseOnly(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	h.FillPrefetch(0, 0, LvlMem)
	h.Access(0, 0, false)
	h.Access(0, 0, false)
	h.Access(0, 16, false) // same line, different word
	if got := timely(h); got != 1 || h.Stats.PrefetchTimelyMem != 1 {
		t.Fatalf("timely = %d (mem %d), want 1 (1): first use only", got, h.Stats.PrefetchTimelyMem)
	}
}

// TestLifeEvictionMatchesGlobalCounter: with nothing demanded, every
// line the L3 evicts is a prefetched line leaving unused, so
// PrefetchEvicted matches the L3's eviction stream exactly.
func TestLifeEvictionMatchesGlobalCounter(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	var evicted uint64
	h.OnL3Evict = func(uint64) { evicted++ }
	// 4KB L3 = 64 lines; fill 3x that, never demand.
	for i := 0; i < 192; i++ {
		h.FillPrefetch(0, uint64(i)*64, LvlMem)
	}
	if evicted != 128 || h.Stats.PrefetchEvicted != evicted {
		t.Fatalf("L3 evictions %d, unused-prefetch evictions %d, want 128 each", evicted, h.Stats.PrefetchEvicted)
	}
}

// TestLifeLevelFillsNotMem: a prefetch serviced inside the hierarchy (L3
// hit promoted to L1) counts as a fill but not a memory fill, so coverage
// only credits DRAM-serviced prefetches.
func TestLifeLevelFillsNotMem(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	h.Access(0, 0, false) // bring the line in via demand
	h.FillPrefetch(0, 4096, LvlL3)
	if h.Stats.PrefetchFills != 1 || h.Stats.PrefetchFillsMem != 0 {
		t.Fatalf("fills/fillsMem = %d/%d, want 1/0", h.Stats.PrefetchFills, h.Stats.PrefetchFillsMem)
	}
}

// timely is the hierarchy's count of timely uses: first demand uses of
// prefetched lines, at any level.
func timely(h *Hierarchy) uint64 {
	return h.Stats.PrefetchL1Hits + h.Stats.PrefetchL2Hits + h.Stats.PrefetchL3Hits
}

// TestTelemetryAllocFree pins the telemetry contract: demand and fill
// paths allocate nothing, with and without a recorder attached (the
// recorder-attached case is BenchmarkHierarchyAccessObs's contract).
func TestTelemetryAllocFree(t *testing.T) {
	run := func(h *Hierarchy) float64 {
		i := 0
		return testing.AllocsPerRun(2000, func() {
			n := uint64(i)
			i++
			h.Access(0, (n%64)*64, false)
			h.FillPrefetch(0, 1<<24+n*64, LvlMem)
			h.Access(0, 1<<24+n*64, false) // timely-outcome path
		})
	}
	if allocs := run(mustNew(t, tinyConfig(1))); allocs != 0 {
		t.Errorf("default path: %.1f allocs/op, want 0", allocs)
	}
	h := mustNew(t, tinyConfig(1))
	r := obs.New(obs.Options{Metrics: io.Discard})
	r.Start(1, nil, nil)
	h.Attach(r)
	if allocs := run(h); allocs != 0 {
		t.Errorf("recorder attached: %.1f allocs/op, want 0", allocs)
	}
	// Booking the counters' changes allocates only the interval's bucket,
	// once.
	r.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() {
		h.Access(0, 1<<30, false)
		r.Snapshot()
	}); allocs != 0 {
		t.Errorf("snapshot: %.1f allocs/op, want 0", allocs)
	}
}
