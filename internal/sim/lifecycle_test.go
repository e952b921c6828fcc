package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
)

// These tests pin the five prefetch-lifecycle classes of the telemetry
// subsystem with hand-driven scenarios: timely fill, late merge, unused
// eviction, redundant issue, and MSHR drop. Each drives the machine's
// issue/demand/complete hooks directly so the classification is exact,
// then reads it back through the same Result path callers use.

// pfq collects the machine's per-core quality for core 0.
func pfq(m *Machine) PrefetchQuality {
	res := m.collect(m.now)
	return res.PFQ[0]
}

func TestLifecycleTimelyFill(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	m := mustMachine(t, Default(1), space, trace.NewGen(1, 0))
	m.now = 0
	if !m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta) {
		t.Fatal("issue rejected")
	}
	m.processEvents(1 << 30) // fill completes long before any demand
	m.now = 1 << 30
	_, level := m.demandAccess(0, m.now, trace.Instr{Kind: trace.Load, Addr: uint32(arr.Addr(0)), PC: 1})
	if level != cache.LvlL1 {
		t.Fatalf("demand level = %v, want L1 (prefetch filled)", level)
	}
	q := pfq(m)
	if q.Issued != 1 || q.Fills != 1 || q.FillsMem != 1 {
		t.Fatalf("issued/fills/fillsMem = %d/%d/%d, want 1/1/1", q.Issued, q.Fills, q.FillsMem)
	}
	if q.Timely != 1 || q.TimelyMem != 1 {
		t.Fatalf("timely = %d (mem %d), want 1 (1)", q.Timely, q.TimelyMem)
	}
	if q.Late != 0 || q.EvictedUnused != 0 || q.Redundant != 0 || q.Dropped != 0 {
		t.Fatalf("unexpected other outcomes: %+v", q)
	}
	if q.Accuracy() != 1 || q.Coverage() != 1 || q.Timeliness() != 1 {
		t.Fatalf("ratios = %.2f/%.2f/%.2f, want 1/1/1", q.Accuracy(), q.Coverage(), q.Timeliness())
	}
	// A second demand to the same line must not double-count: the line is
	// now marked used.
	m.demandAccess(0, m.now, trace.Instr{Kind: trace.Load, Addr: uint32(arr.Addr(0)), PC: 2})
	if q2 := pfq(m); q2.Timely != 1 {
		t.Fatalf("timely after re-hit = %d, want 1 (first use only)", q2.Timely)
	}
}

func TestLifecycleLateMerge(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	m := mustMachine(t, Default(1), space, trace.NewGen(1, 0))
	m.now = 0
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	// Demand arrives while the fill is still in flight.
	m.demandAccess(0, 1, trace.Instr{Kind: trace.Load, Addr: uint32(arr.Addr(0)), PC: 1})
	// A second demand to the same in-flight line is still one late line.
	m.demandAccess(0, 2, trace.Instr{Kind: trace.Load, Addr: uint32(arr.Addr(0)), PC: 2})
	m.processEvents(1 << 30)
	q := pfq(m)
	if q.Late != 1 || q.LateMem != 1 {
		t.Fatalf("late = %d (mem %d), want 1 (1): merges on one line are one late outcome", q.Late, q.LateMem)
	}
	if q.Timely != 0 {
		t.Fatalf("timely = %d, want 0 (demand beat the fill)", q.Timely)
	}
	if m.stats.LateMerges != 2 {
		t.Fatalf("LateMerges = %d, want 2 (per-demand counter unchanged)", m.stats.LateMerges)
	}
	// The prefetch still hid part of the latency: accurate and covering,
	// but not timely.
	if q.Accuracy() != 1 || q.Coverage() != 1 || q.Timeliness() != 0 {
		t.Fatalf("ratios = %.2f/%.2f/%.2f, want 1/1/0", q.Accuracy(), q.Coverage(), q.Timeliness())
	}
}

func TestLifecycleEvictedUnused(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<16)
	cfg := Default(1)
	// Shrink the hierarchy so a few hundred prefetches overflow the LLC.
	cfg.Cache = cache.Config{
		Cores:    1,
		LineSize: 64,
		L1Size:   1 << 10, L1Assoc: 4,
		L2Size: 4 << 10, L2Assoc: 8,
		L3Size: 16 << 10, L3Assoc: 16,
		L1Lat: 2, L2Lat: 6, L3Lat: 30,
	}
	m := mustMachine(t, cfg, space, trace.NewGen(1, 0))
	m.now = 0
	// Twice the L3's line capacity, never demanded: the overflow must be
	// classified evicted-unused.
	lines := 2 * (16 << 10) / 64
	for i := 0; i < lines; i++ {
		if !m.issuePrefetch(0, arr.Addr(i*16), prefetch.UntrackedMeta) {
			t.Fatalf("issue %d rejected", i)
		}
		// Drain past this issue's fill latency before the next one; the
		// horizon must advance each round (processEvents moves m.now to it).
		m.processEvents(m.now + (1 << 20))
	}
	q := pfq(m)
	if q.EvictedUnused == 0 {
		t.Fatal("no evicted-unused outcomes after overflowing the LLC with unused prefetches")
	}
	if q.Timely != 0 || q.Late != 0 {
		t.Fatalf("timely/late = %d/%d, want 0/0 (nothing was demanded)", q.Timely, q.Late)
	}
	if q.Accuracy() != 0 {
		t.Fatalf("accuracy = %.2f, want 0 (no prefetch was used)", q.Accuracy())
	}
	// The per-core attribution must agree with the global Fig. 15 counter.
	if q.EvictedUnused != m.hier.Stats.PrefetchEvicted {
		t.Fatalf("per-core evicted %d != global %d", q.EvictedUnused, m.hier.Stats.PrefetchEvicted)
	}
}

func TestLifecycleRedundantIssue(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	m := mustMachine(t, Default(1), space, trace.NewGen(1, 0))
	m.now = 0
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	// Duplicate while in flight: absorbed, not re-issued.
	if !m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta) {
		t.Fatal("duplicate issue should merge, not drop")
	}
	if q := pfq(m); q.Issued != 1 || q.Redundant != 1 {
		t.Fatalf("issued/redundant = %d/%d, want 1/1 (in-flight merge)", q.Issued, q.Redundant)
	}
	// Fill it, demand it into L1, then re-prefetch the resident line.
	m.processEvents(1 << 30)
	m.now = 1 << 30
	m.demandAccess(0, m.now, trace.Instr{Kind: trace.Load, Addr: uint32(arr.Addr(0)), PC: 1})
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	if q := pfq(m); q.Redundant != 2 {
		t.Fatalf("redundant = %d, want 2 (L1-resident elision)", q.Redundant)
	}
}

func TestLifecycleMSHRDrop(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	cfg := Default(1)
	cfg.PrefetchMSHRs = 1
	m := mustMachine(t, cfg, space, trace.NewGen(1, 0))
	m.now = 0
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	if m.issuePrefetch(0, arr.Addr(64), prefetch.UntrackedMeta) {
		t.Fatal("second issue should hit the MSHR cap")
	}
	q := pfq(m)
	if q.Issued != 1 || q.Dropped != 1 {
		t.Fatalf("issued/dropped = %d/%d, want 1/1", q.Issued, q.Dropped)
	}
	if q.Redundant != 0 {
		t.Fatalf("redundant = %d, want 0 (drop is not a merge)", q.Redundant)
	}
}

func TestQualityAggAcrossCores(t *testing.T) {
	// Full-run path: the aggregate is the sum of per-core rows and the
	// scheme label survives when uniform.
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(2)
	cfg.Prefetcher = prefetch.Stride(prefetch.DefaultStrideConfig())
	res, err := Run(cfg, space, trace.NewGen(2, 0), func(g *trace.Gen) {
		for i := 0; i < len(arr.Data); i++ {
			g.Load(i%2, 1, arr.Addr(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PFQ) != 2 {
		t.Fatalf("PFQ rows = %d, want 2", len(res.PFQ))
	}
	var want PrefetchQuality
	for _, q := range res.PFQ {
		want.Add(q)
	}
	if res.PFQAgg != want {
		t.Fatalf("PFQAgg = %+v, want sum of rows %+v", res.PFQAgg, want)
	}
	if res.PFQAgg.Scheme != res.PFQ[0].Scheme {
		t.Fatalf("agg scheme = %q, want %q", res.PFQAgg.Scheme, res.PFQ[0].Scheme)
	}
	if res.PFQAgg.Issued == 0 || res.PFQAgg.Fills == 0 {
		t.Fatalf("stride run recorded no lifecycle activity: %+v", res.PFQAgg)
	}
	// Fills can't exceed issues, outcomes can't exceed fills.
	if res.PFQAgg.Fills > res.PFQAgg.Issued {
		t.Fatalf("fills %d > issued %d", res.PFQAgg.Fills, res.PFQAgg.Issued)
	}
	if res.PFQAgg.Timely+res.PFQAgg.EvictedUnused > res.PFQAgg.Fills {
		t.Fatalf("outcomes exceed fills: %+v", res.PFQAgg)
	}
}

func TestLedgerHookRecordsLifecycle(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	cfg := Default(1)
	var ledger bytes.Buffer
	cfg.Obs = obs.New(obs.Options{Ledger: &ledger})
	m := mustMachine(t, cfg, space, trace.NewGen(1, 0))
	m.now = 5
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	m.issuePrefetch(0, arr.Addr(64), prefetch.UntrackedMeta)
	// Merge a demand into the second line before its fill lands.
	m.demandAccess(0, 6, trace.Instr{Kind: trace.Load, Addr: uint32(arr.Addr(64)), PC: 1})
	m.processEvents(1 << 20)
	type record struct {
		IssuedAt, FilledAt int64
		Level              cache.Level
		DemandMerged       bool
	}
	var events []record
	for dec := json.NewDecoder(&ledger); dec.More(); {
		var ev record
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("ledger events = %d, want 2", len(events))
	}
	for _, ev := range events {
		if ev.IssuedAt != 5 {
			t.Fatalf("issuedAt = %d, want 5", ev.IssuedAt)
		}
		if ev.FilledAt != 1<<20 {
			t.Fatalf("filledAt = %d, want %d", ev.FilledAt, 1<<20)
		}
		if ev.Level != cache.LvlMem {
			t.Fatalf("level = %v, want MEM", ev.Level)
		}
	}
	merged := 0
	for _, ev := range events {
		if ev.DemandMerged {
			merged++
		}
	}
	if merged != 1 {
		t.Fatalf("demand-merged events = %d, want 1", merged)
	}
}
