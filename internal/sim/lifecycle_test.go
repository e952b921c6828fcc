package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// These tests pin the five prefetch-lifecycle classes of the telemetry
// subsystem with hand-driven scenarios: timely fill, late merge, unused
// eviction, redundant issue, and MSHR drop. Each drives the machine's
// issue/demand/complete hooks directly so the classification is exact,
// then reads it back through the same Result path callers use.

// pfq collects the machine's prefetch quality.
func pfq(m *Machine) PrefetchQuality {
	res := m.collect(m.now)
	return res.PFQAgg
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
	// Every fill past the L3's capacity evicts one unused line.
	if want := uint64(lines - (16<<10)/64); q.Fills != uint64(lines) || q.EvictedUnused != want {
		t.Fatalf("fills/evicted = %d/%d, want %d/%d", q.Fills, q.EvictedUnused, lines, want)
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
	// Full-run path: the account is built from the machine-wide engine and
	// hierarchy totals, and the scheme label survives when uniform.
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(2)
	cfg.Prefetcher = prefetch.Stride(prefetch.DefaultStrideConfig())
	gen := trace.NewGen(2, 0)
	m := mustMachine(t, cfg, space, gen)
	wait := gen.Run(func(g *trace.Gen) {
		for i := 0; i < len(arr.Data); i++ {
			g.Load(i%2, 1, arr.Addr(i))
		}
	})
	res, err := m.Run()
	gen.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	// The prefetchers' own provenance adds to the engine's counts.
	var own prefetch.IssueStats
	for _, pf := range m.pfs {
		is := pf.(prefetch.IssueReporter).IssueStats()
		own.SkippedResident += is.SkippedResident
		own.DroppedInternal += is.DroppedInternal
	}
	c, s := res.Cache, res.Sim
	want := PrefetchQuality{
		Scheme:        "stride",
		Issued:        s.PrefetchIssued,
		Fills:         c.PrefetchFills,
		FillsMem:      c.PrefetchFillsMem,
		Timely:        c.PrefetchL1Hits + c.PrefetchL2Hits + c.PrefetchL3Hits,
		TimelyMem:     c.PrefetchTimelyMem,
		Late:          res.PFQAgg.Late,
		LateMem:       res.PFQAgg.LateMem,
		EvictedUnused: c.PrefetchEvicted,
		Redundant:     s.PrefetchMergedResident + own.SkippedResident,
		Dropped:       s.PrefetchMSHRFull + own.DroppedInternal,
		DemandMisses:  c.DemandMem,
	}
	if res.PFQAgg != want {
		t.Fatalf("PFQAgg = %+v, want the machine totals %+v", res.PFQAgg, want)
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

// TestLifecycleLaws checks two conservation laws of the lifecycle account
// on every quick cell under every scheme. Each issued prefetch has filled
// or is still in flight when the run ends. And no fill has two outcomes:
// timely uses, fills a demand merged with in flight and unused evictions
// together never exceed the fills.
func TestLifecycleLaws(t *testing.T) {
	pfhr := core.DefaultConfig().PFHREntries
	schemes := []struct {
		name string
		// swpf builds the workload with software prefetch instructions.
		swpf bool
		fac  func(d *dig.DIG) prefetch.Factory
	}{
		{"none", false, func(*dig.DIG) prefetch.Factory { return nil }},
		{"stride", false, func(*dig.DIG) prefetch.Factory { return prefetch.Stride(prefetch.DefaultStrideConfig()) }},
		{"ghb-gdc", false, func(*dig.DIG) prefetch.Factory { return prefetch.GHB(prefetch.DefaultGHBConfig()) }},
		{"imp", false, func(*dig.DIG) prefetch.Factory { return prefetch.IMP(prefetch.DefaultIMPConfig()) }},
		{"aj", false, func(d *dig.DIG) prefetch.Factory {
			return prefetch.AJ(d, func(chain *dig.DIG) prefetch.Factory {
				return core.New(chain, core.Config{PFHREntries: pfhr, SingleSequence: true})
			})
		}},
		{"droplet", false, func(d *dig.DIG) prefetch.Factory { return prefetch.Droplet(d, prefetch.DefaultDropletConfig()) }},
		{"software-pf", true, func(*dig.DIG) prefetch.Factory { return nil }},
		{"prodigy", false, func(d *dig.DIG) prefetch.Factory { return core.New(d, core.Config{PFHREntries: pfhr}) }},
	}
	for _, algo := range workloads.AllAlgos {
		datasets := []string{""}
		if workloads.IsGraphAlgo(algo) {
			datasets = []string{"po", "lj"}
		}
		for _, ds := range datasets {
			for _, s := range schemes {
				cell := workloads.Label(algo, ds) + "/" + s.name
				w, err := workloads.Build(algo, ds, 2, workloads.Options{Scale: graph.ScaleTiny, SoftwarePrefetch: s.swpf})
				if err != nil {
					t.Fatal(err)
				}
				cfg := quickConfig()
				cfg.Prefetcher = s.fac(w.DIG)
				gen := trace.NewGen(2, 0)
				m := mustMachine(t, cfg, w.Space, gen)
				wait := gen.Run(w.Run)
				res, err := m.Run()
				gen.Abort()
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if err := wait(); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				q := res.PFQAgg
				if inFlight := uint64(len(m.events)); q.Issued != q.Fills+inFlight {
					t.Errorf("%s: issued %d != fills %d + in flight %d", cell, q.Issued, q.Fills, inFlight)
				}
				if out := q.Timely + res.Sim.LateUsedFills + q.EvictedUnused; out > q.Fills {
					t.Errorf("%s: timely %d + late-used fills %d + evicted unused %d = %d outcomes > %d fills",
						cell, q.Timely, res.Sim.LateUsedFills, q.EvictedUnused, out, q.Fills)
				}
			}
		}
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
