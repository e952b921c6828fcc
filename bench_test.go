package prodigy

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section VI), plus microbenchmarks of the
// simulator substrates.
//
// Experiment benchmarks run the paper configuration (8 cores, scaled
// datasets, Table I machine) through the shared harness; results are
// memoized across benchmarks, so `go test -bench=.` pays for each
// (workload × scheme) simulation once. Every benchmark reports its
// headline number (the value EXPERIMENTS.md compares against the paper)
// via b.ReportMetric.
//
// Regenerate the full printed tables with:
//
//	go run ./cmd/prodigy-bench
//
// and a fast smoke pass with:
//
//	go run ./cmd/prodigy-bench -quick

import (
	"runtime"
	"sync"
	"testing"

	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

var (
	benchOnce    sync.Once
	benchHarness *exp.Harness
)

// harness returns the shared paper-scale harness. Sweeps fan out across
// all host cores; results are identical to a serial run (see
// exp.TestParallelMatchesSerialGolden), only the wall time differs.
func harness() *exp.Harness {
	benchOnce.Do(func() {
		cfg := exp.Default()
		cfg.Parallelism = runtime.GOMAXPROCS(0)
		benchHarness = exp.New(cfg)
	})
	return benchHarness
}

func BenchmarkFig2PageRankLivejournal(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		// Prodigy is the last scheme; paper: 2.9x speedup, 8.2x DRAM-stall
		// reduction.
		last := len(r.Schemes) - 1
		b.ReportMetric(r.Speedup[last], "prodigy-speedup-x")
		if r.DRAMStallNorm[last] > 0 {
			b.ReportMetric(1/r.DRAMStallNorm[last], "dram-stall-reduction-x")
		}
	}
}

func BenchmarkFig4BaselineBreakdown(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		// Average DRAM-stall share; paper: >50% on most workloads.
		var dram float64
		for _, row := range r.Rows {
			dram += row.Frac[1]
		}
		b.ReportMetric(100*dram/float64(len(r.Rows)), "avg-dram-stall-%")
	}
}

func BenchmarkFig12PFHRSize(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		// Spread between best and worst config; paper: up to ~30%.
		var maxSpread float64
		for _, a := range r.Algos {
			mn, mx := r.Speedup[a][0], r.Speedup[a][0]
			for _, s := range r.Speedup[a] {
				if s < mn {
					mn = s
				}
				if s > mx {
					mx = s
				}
			}
			if sp := mx/mn - 1; sp > maxSpread {
				maxSpread = sp
			}
		}
		b.ReportMetric(100*maxSpread, "max-spread-%")
	}
}

func BenchmarkFig13PrefetchableMisses(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 96.4% average.
		b.ReportMetric(100*r.Avg, "prefetchable-%")
	}
}

func BenchmarkFig14SpeedupVsBaseline(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 2.6x average speedup, 80.3% DRAM-stall cut, 65.3% branch
		// cut.
		b.ReportMetric(r.GeomeanSpeedup, "geomean-speedup-x")
		b.ReportMetric(100*r.DRAMStallReduction, "dram-stall-cut-%")
		b.ReportMetric(100*r.BranchStallReduction, "branch-stall-cut-%")
	}
}

func BenchmarkFig15PrefetchUsefulness(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 62.7% of prefetches demanded before eviction.
		b.ReportMetric(100*r.AvgUseful, "useful-%")
	}
}

func BenchmarkFig16SavedMisses(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 85.1% of prefetchable LLC misses converted to hits.
		b.ReportMetric(100*r.Avg, "saved-%")
	}
}

func BenchmarkFig17PrefetcherComparison(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: Prodigy beats A&J 1.5x, DROPLET 1.6x, IMP 2.3x.
		pro := r.Geomean[len(r.Geomean)-1]
		for si, s := range r.Schemes {
			if s == exp.SchemeAJ && r.Geomean[si] > 0 {
				b.ReportMetric(pro/r.Geomean[si], "vs-aj-x")
			}
			if s == exp.SchemeDroplet && r.Geomean[si] > 0 {
				b.ReportMetric(pro/r.Geomean[si], "vs-droplet-x")
			}
			if s == exp.SchemeIMP && r.Geomean[si] > 0 {
				b.ReportMetric(pro/r.Geomean[si], "vs-imp-x")
			}
		}
	}
}

func BenchmarkFig18ReorderedGraphs(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig18()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 2.3x average on HubSort-reordered inputs.
		b.ReportMetric(r.Geomean, "speedup-x")
	}
}

func BenchmarkFig19Energy(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig19()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 1.6x average energy saving.
		b.ReportMetric(r.AvgSaving, "energy-saving-x")
	}
}

func BenchmarkTable3BestReported(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			// Paper: Prodigy 2.8/2.9/4.6 vs prior 2.4/1.9/1.8.
			b.ReportMetric(row.ProdigySpeedup, "prodigy-x-"+row.Algos[0])
		}
	}
}

func BenchmarkRangedFraction(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.RangedFraction()
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 55.3% average on graph algorithms.
		b.ReportMetric(100*r.Avg, "ranged-%")
	}
}

func BenchmarkScalability(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Scalability([]int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		// §VI-F: 8-core Prodigy throughput and DRAM utilization.
		last := len(r.Cores) - 1
		b.ReportMetric(r.ProThroughput[3], "prodigy-8core-throughput")
		b.ReportMetric(100*r.ProUtil[last], "prodigy-16core-dram-util-%")
	}
}

func BenchmarkAblationLookahead(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationLookahead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup[0], "heuristic-x")
	}
}

func BenchmarkAblationDropping(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationDropping()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup[0]/r.Speedup[1], "multi-vs-single-x")
	}
}

func BenchmarkAblationRanged(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationRanged()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup[0]/r.Speedup[1], "ranged-benefit-x")
	}
}

func BenchmarkAblationFillLevel(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationFillLevel()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup[0]/r.Speedup[1], "l1-vs-l2-fill-x")
	}
}

// Substrate microbenchmarks.

func BenchmarkSimThroughputBFS(b *testing.B) {
	// Simulated instructions per second on bfs-lj with Prodigy.
	w, err := workloads.Build("bfs", "lj", 8, workloads.Options{Scale: graph.ScaleSmall})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var retired int64
	for i := 0; i < b.N; i++ {
		cfg := DefaultMachine(8)
		cfg.Prefetcher = NewProdigy(w.DIG, DefaultProdigyConfig())
		res, err := RunMachine(cfg, w.Space, NewTraceGen(8), w.Run)
		if err != nil {
			b.Fatal(err)
		}
		retired += res.Agg.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkGraphBuildRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.RMAT(14, 14, uint64(i+1))
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	w, err := workloads.Build("pr", "po", 4, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := trace.Collect(4, w.Run)
		if len(out[0]) == 0 {
			b.Fatal("empty trace")
		}
	}
}
