package exp

import "prodigy/internal/stats"

// ScalabilityResult is the Section VI-F study: throughput and memory
// bandwidth utilization as core count grows, baseline vs Prodigy.
type ScalabilityResult struct {
	Cores []int
	// BaseThroughput / ProThroughput are relative throughputs (1/cycles,
	// normalized to the 1-core baseline).
	BaseThroughput, ProThroughput []float64
	// BaseUtil / ProUtil are DRAM pipe utilizations.
	BaseUtil, ProUtil []float64
}

// Scalability reproduces the Section VI-F discussion on PageRank: an
// 8-core Prodigy system approaches the bandwidth saturation a far larger
// non-prefetching system needs (the paper estimates ~40 baseline cores ≈
// 5× more area for the same throughput).
func (h *Harness) Scalability(coreCounts []int) (*ScalabilityResult, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4, 8, 16, 32}
	}
	ds := h.Cfg.Datasets[0]
	var jobs []job
	for _, nc := range coreCounts {
		jobs = append(jobs, h.job("pr", ds, SchemeNone, runVariant{cores: nc}),
			h.job("pr", ds, SchemeProdigy, runVariant{cores: nc}))
	}
	runs, err := h.sweep(jobs)
	if err != nil {
		return nil, err
	}
	out := &ScalabilityResult{Cores: coreCounts}
	base1 := float64(runs[0].Res.Cycles)
	for i := range coreCounts {
		base, pro := runs[2*i], runs[2*i+1]
		out.BaseThroughput = append(out.BaseThroughput, base1/float64(base.Res.Cycles))
		out.ProThroughput = append(out.ProThroughput, base1/float64(pro.Res.Cycles))
		out.BaseUtil = append(out.BaseUtil, base.Res.DRAMUtilization)
		out.ProUtil = append(out.ProUtil, pro.Res.DRAMUtilization)
	}
	return out, nil
}

// Table renders the study.
func (r *ScalabilityResult) Table() *stats.Table {
	t := stats.NewTable("§VI-F: scalability on pr (throughput normalized to 1-core baseline)",
		"cores", "base-throughput", "prodigy-throughput", "base-DRAM-util", "prodigy-DRAM-util")
	for i, c := range r.Cores {
		t.AddRow(c, r.BaseThroughput[i], r.ProThroughput[i], r.BaseUtil[i], r.ProUtil[i])
	}
	return t
}
