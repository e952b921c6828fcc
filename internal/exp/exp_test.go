package exp

import (
	"strings"
	"testing"

	"prodigy/internal/cpu"
	"prodigy/internal/stats"
)

// qh returns a shared quick harness; runs are memoized inside it, so the
// package tests reuse simulations.
var sharedHarness = New(Quick())

func TestRunOneBaselineAndProdigy(t *testing.T) {
	h := sharedHarness
	base, err := h.RunOne("bfs", "po", SchemeNone)
	if err != nil {
		t.Fatal(err)
	}
	pro, err := h.RunOne("bfs", "po", SchemeProdigy)
	if err != nil {
		t.Fatal(err)
	}
	if base.Res.Cycles <= 0 || pro.Res.Cycles <= 0 {
		t.Fatal("empty runs")
	}
	if base.Res.Agg.Retired != pro.Res.Agg.Retired {
		t.Fatalf("instruction counts differ: %d vs %d (prefetching must not change work)",
			base.Res.Agg.Retired, pro.Res.Agg.Retired)
	}
	if sp := base.Speedup(pro); sp < 1.0 {
		t.Fatalf("Prodigy slowed bfs down: %.2fx", sp)
	}
	// Memoization returns the same pointer.
	again, err := h.RunOne("bfs", "po", SchemeNone)
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Fatal("run not memoized")
	}
}

func TestAllSchemesRun(t *testing.T) {
	h := sharedHarness
	for _, s := range []Scheme{SchemeNone, SchemeStride, SchemeGHB, SchemeIMP,
		SchemeAJ, SchemeDroplet, SchemeSoftware, SchemeProdigy} {
		if _, err := h.RunOne("pr", "po", s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := h.RunOne("pr", "po", Scheme("bogus")); err == nil {
		t.Fatal("bogus scheme should fail")
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := sharedHarness.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schemes) != 4 || len(r.Speedup) != 4 {
		t.Fatalf("shape: %+v", r)
	}
	// Baseline normalizes to itself.
	if r.DRAMStallNorm[0] != 1 || r.Speedup[0] != 1 {
		t.Fatalf("baseline not normalized: %+v", r)
	}
	// Prodigy (last) must beat GHB and DROPLET, and cut DRAM stalls most.
	pro := len(r.Schemes) - 1
	for i := 1; i < pro; i++ {
		if r.Speedup[pro] < r.Speedup[i] {
			t.Errorf("Prodigy (%.2fx) slower than %s (%.2fx)", r.Speedup[pro], r.Schemes[i], r.Speedup[i])
		}
	}
	if r.DRAMStallNorm[pro] >= 1 {
		t.Errorf("Prodigy did not reduce DRAM stalls: %v", r.DRAMStallNorm)
	}
	if !strings.Contains(r.Table().String(), "prodigy") {
		t.Error("table missing prodigy row")
	}
}

func TestFig4DRAMBound(t *testing.T) {
	r, err := sharedHarness.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	want := len(sharedHarness.GraphCells(true))
	if len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
	// The paper's motivation: most workloads are dominated by DRAM stalls.
	dramHeavy := 0
	for _, row := range r.Rows {
		var sum float64
		for _, f := range row.Frac {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: fractions sum to %f", row.Label, sum)
		}
		if row.Frac[1] > 0.4 {
			dramHeavy++
		}
	}
	if dramHeavy < len(r.Rows)/2 {
		t.Errorf("only %d/%d workloads DRAM-heavy; motivation broken", dramHeavy, len(r.Rows))
	}
}

func TestFig13Coverage(t *testing.T) {
	r, err := sharedHarness.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Algos) != 9 {
		t.Fatalf("algos = %d", len(r.Algos))
	}
	// Paper: 96.4% average. The shape requirement: overwhelmingly covered.
	if r.Avg < 0.85 {
		t.Errorf("prefetchable fraction = %.1f%%, want > 85%%", 100*r.Avg)
	}
}

func TestFig14SpeedupAndStallCuts(t *testing.T) {
	r, err := sharedHarness.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2.6x average; shape: clearly > 1.3x even at tiny scale.
	if r.GeomeanSpeedup < 1.3 {
		t.Errorf("geomean speedup = %.2fx, want > 1.3x", r.GeomeanSpeedup)
	}
	if r.DRAMStallReduction < 0.3 {
		t.Errorf("DRAM stall reduction = %.1f%%, want > 30%%", 100*r.DRAMStallReduction)
	}
	// Branch stalls should also shrink (the Srinivasan & Lebeck effect).
	if r.BranchStallReduction <= 0 {
		t.Errorf("branch stalls did not shrink: %.3f", r.BranchStallReduction)
	}
}

func TestFig15Usefulness(t *testing.T) {
	r, err := sharedHarness.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgUseful <= 0.2 {
		t.Errorf("average usefulness = %.1f%%, implausibly low", 100*r.AvgUseful)
	}
	for i, a := range r.Algos {
		total := r.L1[i] + r.L2[i] + r.L3[i] + r.Late[i] + r.Evicted[i]
		if total > 1.35 {
			t.Errorf("%s: usefulness fractions sum to %.2f (>1.35)", a, total)
		}
	}
}

func TestFig16SavedMisses(t *testing.T) {
	r, err := sharedHarness.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if r.Avg < 0.3 {
		t.Errorf("saved prefetchable misses = %.1f%%, want > 30%%", 100*r.Avg)
	}
}

func TestFig17Ordering(t *testing.T) {
	r, err := sharedHarness.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	// Prodigy's overall geomean must lead every other scheme.
	proIdx := len(r.Schemes) - 1
	for i := 0; i < proIdx; i++ {
		if r.Geomean[proIdx] < r.Geomean[i] {
			t.Errorf("Prodigy geomean %.2fx below %s %.2fx",
				r.Geomean[proIdx], r.Schemes[i], r.Geomean[i])
		}
	}
	if !strings.Contains(r.Table().String(), "imp") {
		t.Error("table missing IMP column")
	}
}

func TestFig18ReorderedGraphs(t *testing.T) {
	r, err := sharedHarness.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Algos) != 5 {
		t.Fatalf("algos = %d", len(r.Algos))
	}
	if r.Geomean < 1.2 {
		t.Errorf("Prodigy on reordered graphs = %.2fx, want > 1.2x", r.Geomean)
	}
}

func TestFig19Energy(t *testing.T) {
	r, err := sharedHarness.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgSaving < 1.1 {
		t.Errorf("energy saving = %.2fx, want > 1.1x", r.AvgSaving)
	}
	for i, n := range r.NormPro {
		if n <= 0 || n > 1.5 {
			t.Errorf("%s: normalized energy %.2f out of range", r.Labels[i], n)
		}
	}
}

func TestTable3(t *testing.T) {
	r, err := sharedHarness.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ProdigySpeedup <= 1 {
			t.Errorf("%s subset: Prodigy %.2fx", row.PriorWork, row.ProdigySpeedup)
		}
	}
}

func TestRangedFraction(t *testing.T) {
	r, err := sharedHarness.RangedFraction()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 35-76% of prefetched data comes via ranged indirection.
	if r.Avg < 0.2 || r.Avg > 0.95 {
		t.Errorf("ranged fraction avg = %.2f, outside plausible band", r.Avg)
	}
	// The statistic's inputs for one cell, pinned exactly: the per-core
	// Prodigy line counters, summed (prodigy-sim -tiny -cores 2 prints
	// the same counters per core).
	run, err := sharedHarness.RunOne("bfs", "po", SchemeProdigy)
	if err != nil {
		t.Fatal(err)
	}
	if single, ranged := prodigyIssueCounts(run); single != 5435 || ranged != 1441 {
		t.Errorf("bfs-po Prodigy lines: single %d, ranged %d; want 5435, 1441", single, ranged)
	}
}

func TestFig12PFHR(t *testing.T) {
	r, err := sharedHarness.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Algos {
		if r.Speedup[a][0] != 1 {
			t.Errorf("%s: 4-entry config not normalized to 1", a)
		}
		for _, s := range r.Speedup[a] {
			if s < 0.5 || s > 2.5 {
				t.Errorf("%s: implausible PFHR speedup %v", a, r.Speedup[a])
			}
		}
	}
}

func TestAblations(t *testing.T) {
	h := sharedHarness
	la, err := h.AblationLookahead()
	if err != nil {
		t.Fatal(err)
	}
	if len(la.Speedup) != 5 {
		t.Fatalf("lookahead variants = %d", len(la.Speedup))
	}
	drop, err := h.AblationDropping()
	if err != nil {
		t.Fatal(err)
	}
	if drop.Speedup[0] < drop.Speedup[1]*0.85 {
		t.Errorf("multi+drop (%.2fx) far below single-sequence (%.2fx)",
			drop.Speedup[0], drop.Speedup[1])
	}
	rng, err := h.AblationRanged()
	if err != nil {
		t.Fatal(err)
	}
	if rng.Speedup[0] < rng.Speedup[1] {
		t.Errorf("ranged support (%.2fx) below w0-only (%.2fx)", rng.Speedup[0], rng.Speedup[1])
	}
	fill, err := h.AblationFillLevel()
	if err != nil {
		t.Fatal(err)
	}
	if len(fill.Speedup) != 2 {
		t.Fatal("fill-level variants missing")
	}
	if !strings.Contains(fill.Table().String(), "fill-L2") {
		t.Error("ablation table malformed")
	}
}

func TestScalability(t *testing.T) {
	r, err := sharedHarness.Scalability([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cores) != 3 {
		t.Fatal("wrong core counts")
	}
	// Throughput must not decrease with more cores; Prodigy >= baseline.
	for i := range r.Cores {
		if r.ProThroughput[i] < r.BaseThroughput[i]*0.95 {
			t.Errorf("cores=%d: Prodigy throughput %.2f below baseline %.2f",
				r.Cores[i], r.ProThroughput[i], r.BaseThroughput[i])
		}
		if r.ProUtil[i] < r.BaseUtil[i]*0.9 {
			t.Errorf("cores=%d: Prodigy should push DRAM utilization up", r.Cores[i])
		}
	}
}

func TestVerifyRunsUnderAllSchemes(t *testing.T) {
	// Quick() sets Verify: every run in this package re-checked outputs;
	// assert the flag is actually on so regressions can't silently skip.
	if !sharedHarness.Cfg.Verify {
		t.Fatal("quick harness must verify")
	}
}

func TestDRAMStallFracHelper(t *testing.T) {
	base, err := sharedHarness.RunOne("cc", "po", SchemeNone)
	if err != nil {
		t.Fatal(err)
	}
	f := base.DRAMStallFrac()
	if f <= 0 || f >= 1 {
		t.Fatalf("DRAM stall fraction = %v", f)
	}
	var zero Run
	if zero.DRAMStallFrac() != 0 {
		t.Error("zero run should have 0 fraction")
	}
	if (&Run{}).Speedup(&Run{}) != 0 {
		t.Error("zero-cycle speedup should be 0")
	}
	_ = cpu.DRAMStall
}

func TestTable2Inventory(t *testing.T) {
	bad := Quick()
	bad.Datasets = []string{"po", "zz"}
	if _, err := New(bad).Table2(); err == nil || !strings.Contains(err.Error(), `unknown dataset "zz"`) {
		t.Errorf("Table2 over an unknown dataset: err = %v, want an unknown-dataset error", err)
	}
	r, err := sharedHarness.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(sharedHarness.Cfg.Datasets) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Vertices == 0 || row.Edges == 0 || row.SizeOverLLC <= 0 {
			t.Fatalf("degenerate row: %+v", row)
		}
		// The working-set-to-LLC property of DESIGN.md §2 must hold. The
		// table reports the directed CSR alone; workloads add the
		// transpose/undirected edges and per-vertex arrays, so require the
		// bare CSR to be at least half the LLC.
		if row.SizeOverLLC < 0.5 {
			t.Errorf("%s far smaller than the LLC (%.2fx); scaling broken", row.Name, row.SizeOverLLC)
		}
	}
	if !strings.Contains(r.Table().String(), "livejournal") {
		t.Error("table missing dataset names")
	}
}

func TestSoftwarePFWeakerThanProdigy(t *testing.T) {
	r, err := sharedHarness.SoftwarePF()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: static software prefetching helps a little,
	// Prodigy helps a lot more.
	soft := stats.Geomean(r.SoftwareSpeedup)
	pro := stats.Geomean(r.ProdigySpeedup)
	if pro < soft {
		t.Errorf("Prodigy %.2fx below software prefetching %.2fx", pro, soft)
	}
}
