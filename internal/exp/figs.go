package exp

import (
	"prodigy/internal/cpu"
	"prodigy/internal/stats"
	"prodigy/internal/workloads"
)

// Fig2Result is the headline comparison: PageRank on livejournal across
// no-prefetching, GHB G/DC, DROPLET, and Prodigy.
type Fig2Result struct {
	Schemes []Scheme
	// DRAMStallNorm is each scheme's DRAM-stall cycles normalized to the
	// baseline's (paper: Prodigy reaches ~1/8.2 of baseline).
	DRAMStallNorm []float64
	// Speedup is end-to-end speedup over the baseline (paper: ~2.9× for
	// Prodigy, marginal for G/DC and DROPLET).
	Speedup []float64
}

// Fig2 reproduces Figure 2.
func (h *Harness) Fig2() (*Fig2Result, error) {
	schemes := []Scheme{SchemeNone, SchemeGHB, SchemeDroplet, SchemeProdigy}
	var jobs jobList
	for _, s := range schemes {
		jobs.add(h, "pr", "lj", s, runVariant{})
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	base, err := h.RunOne("pr", "lj", SchemeNone)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{Schemes: schemes}
	baseStall := float64(base.Res.Agg.Cycles[cpu.DRAMStall])
	for _, s := range schemes {
		r, err := h.RunOne("pr", "lj", s)
		if err != nil {
			return nil, err
		}
		norm := 0.0
		if baseStall > 0 {
			norm = float64(r.Res.Agg.Cycles[cpu.DRAMStall]) / baseStall
		}
		out.DRAMStallNorm = append(out.DRAMStallNorm, norm)
		out.Speedup = append(out.Speedup, base.Speedup(r))
	}
	return out, nil
}

// Table renders the figure.
func (r *Fig2Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 2: PageRank on livejournal (vs no-prefetching)",
		"scheme", "dram-stall(norm)", "speedup(x)")
	for i, s := range r.Schemes {
		t.AddRow(string(s), r.DRAMStallNorm[i], r.Speedup[i])
	}
	return t
}

// StackRow is one workload's CPI stack, normalized to a baseline total.
type StackRow struct {
	Label string
	// Frac holds the per-category share in cpu.StallKinds order.
	Frac [6]float64
	// Speedup vs the baseline run (1.0 for the baseline itself).
	Speedup float64
}

// Fig4Result is the baseline execution-time breakdown for every workload.
type Fig4Result struct {
	Rows []StackRow
}

// Fig4 reproduces Figure 4: normalized execution time of the
// non-prefetching baseline broken into stall classes. The paper's
// observation: DRAM stalls exceed 50% on most workloads.
func (h *Harness) Fig4() (*Fig4Result, error) {
	var jobs jobList
	jobs.addCells(h, h.GraphCells(true), SchemeNone)
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig4Result{}
	for _, cell := range h.GraphCells(true) {
		r, err := h.RunOne(cell.Algo, cell.Dataset, SchemeNone)
		if err != nil {
			return nil, err
		}
		row := StackRow{Label: r.Label, Speedup: 1}
		total := float64(r.Res.Agg.Total())
		for i, k := range cpu.StallKinds {
			row.Frac[i] = float64(r.Res.Agg.Cycles[k]) / total
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the figure.
func (r *Fig4Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 4: baseline execution-time breakdown",
		"workload", "no-stall", "dram", "cache", "branch", "dependency", "other")
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.Frac[0], row.Frac[1], row.Frac[2], row.Frac[3], row.Frac[4], row.Frac[5])
	}
	return t
}

// Fig12Result is the PFHR design-space exploration.
type Fig12Result struct {
	Sizes []int
	// Speedup[algo][i] is the speedup of PFHR size Sizes[i] relative to
	// the 4-entry configuration, averaged over datasets.
	Speedup map[string][]float64
	Algos   []string
}

// Fig12 reproduces Figure 12: performance vs PFHR file size (4/8/16/32),
// normalized to 4 entries.
func (h *Harness) Fig12() (*Fig12Result, error) {
	sizes := []int{4, 8, 16, 32}
	var jobs jobList
	for _, algo := range allAlgosOrdered() {
		for _, ds := range h.datasetsFor(algo) {
			for _, sz := range sizes {
				jobs.add(h, algo, ds, SchemeProdigy, runVariant{pfhr: sz})
			}
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig12Result{Sizes: sizes, Speedup: map[string][]float64{}}
	for _, algo := range allAlgosOrdered() {
		out.Algos = append(out.Algos, algo)
		perSize := make([][]float64, len(sizes))
		for _, ds := range h.datasetsFor(algo) {
			var baseCycles float64
			for i, sz := range sizes {
				r, err := h.run(algo, ds, SchemeProdigy, runVariant{pfhr: sz})
				if err != nil {
					return nil, err
				}
				if i == 0 {
					baseCycles = float64(r.Res.Cycles)
				}
				perSize[i] = append(perSize[i], baseCycles/float64(r.Res.Cycles))
			}
		}
		for i := range sizes {
			out.Speedup[algo] = append(out.Speedup[algo], stats.Geomean(perSize[i]))
		}
	}
	return out, nil
}

// Table renders the figure.
func (r *Fig12Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 12: PFHR file size DSE (speedup vs 4 entries)",
		"algo", "4", "8", "16", "32")
	for _, a := range r.Algos {
		s := r.Speedup[a]
		t.AddRow(a, s[0], s[1], s[2], s[3])
	}
	return t
}

// Fig13Result classifies baseline LLC misses against the DIG ranges.
type Fig13Result struct {
	Algos []string
	// PrefetchableFrac is the share of LLC misses inside DIG-annotated
	// structures (paper average: 96.4%).
	PrefetchableFrac []float64
	Avg              float64
}

// Fig13 reproduces Figure 13.
func (h *Harness) Fig13() (*Fig13Result, error) {
	var jobs jobList
	for _, algo := range allAlgosOrdered() {
		for _, ds := range h.datasetsFor(algo) {
			jobs.add(h, algo, ds, SchemeNone, runVariant{})
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig13Result{}
	for _, algo := range allAlgosOrdered() {
		var fracs []float64
		for _, ds := range h.datasetsFor(algo) {
			r, err := h.RunOne(algo, ds, SchemeNone)
			if err != nil {
				return nil, err
			}
			if r.Res.Cache.DemandMem > 0 {
				fracs = append(fracs, float64(r.MissesInDIG)/float64(r.Res.Cache.DemandMem))
			}
		}
		out.Algos = append(out.Algos, algo)
		out.PrefetchableFrac = append(out.PrefetchableFrac, stats.Mean(fracs))
	}
	out.Avg = stats.Mean(out.PrefetchableFrac)
	return out, nil
}

// Table renders the figure.
func (r *Fig13Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 13: LLC misses inside DIG ranges (prefetchable)",
		"algo", "prefetchable(%)")
	for i, a := range r.Algos {
		t.AddRow(a, 100*r.PrefetchableFrac[i])
	}
	t.AddRow("avg", 100*r.Avg)
	return t
}

// Fig14Result compares Prodigy's CPI stacks and speedups against the
// baseline for every workload.
type Fig14Result struct {
	// Base and Pro are per-workload stacks; Pro fractions are normalized
	// to the *baseline* total (so bars compare like the paper's).
	Base, Pro []StackRow
	// GeomeanSpeedup across all workloads (paper: 2.6×).
	GeomeanSpeedup float64
	// DRAMStallReduction is the average relative reduction (paper: 80.3%).
	DRAMStallReduction float64
	// BranchStallReduction (paper: 65.3% on graph workloads).
	BranchStallReduction float64
}

// Fig14 reproduces Figure 14.
func (h *Harness) Fig14() (*Fig14Result, error) {
	var jobs jobList
	jobs.addCells(h, h.GraphCells(true), SchemeNone, SchemeProdigy)
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig14Result{}
	var speedups []float64
	var dramRed, branchRed []float64
	for _, cell := range h.GraphCells(true) {
		base, err := h.RunOne(cell.Algo, cell.Dataset, SchemeNone)
		if err != nil {
			return nil, err
		}
		pro, err := h.RunOne(cell.Algo, cell.Dataset, SchemeProdigy)
		if err != nil {
			return nil, err
		}
		baseTotal := float64(base.Res.Agg.Total())
		var bRow, pRow StackRow
		bRow.Label, pRow.Label = base.Label, pro.Label
		bRow.Speedup = 1
		pRow.Speedup = base.Speedup(pro)
		for i, k := range cpu.StallKinds {
			bRow.Frac[i] = float64(base.Res.Agg.Cycles[k]) / baseTotal
			pRow.Frac[i] = float64(pro.Res.Agg.Cycles[k]) / baseTotal
		}
		out.Base = append(out.Base, bRow)
		out.Pro = append(out.Pro, pRow)
		speedups = append(speedups, pRow.Speedup)
		if b := base.Res.Agg.Cycles[cpu.DRAMStall]; b > 0 {
			dramRed = append(dramRed, 1-float64(pro.Res.Agg.Cycles[cpu.DRAMStall])/float64(b))
		}
		if b := base.Res.Agg.Cycles[cpu.BranchStall]; b > 0 && isGraphAlgo(cell.Algo) {
			branchRed = append(branchRed, 1-float64(pro.Res.Agg.Cycles[cpu.BranchStall])/float64(b))
		}
	}
	out.GeomeanSpeedup = stats.Geomean(speedups)
	out.DRAMStallReduction = stats.Mean(dramRed)
	out.BranchStallReduction = stats.Mean(branchRed)
	return out, nil
}

// isGraphAlgo reports whether algo is a graph algorithm (branch-stall
// reduction is a graph-workload observation in the paper, and A&J/DROPLET
// are graph-specific schemes).
func isGraphAlgo(algo string) bool {
	switch algo {
	case "bc", "bfs", "cc", "pr", "sssp":
		return true
	}
	return false
}

// Table renders the figure.
func (r *Fig14Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 14: CPI stacks (normalized to baseline) and speedup",
		"workload", "base-dram", "pro-dram", "base-branch", "pro-branch", "pro-total", "speedup(x)")
	for i := range r.Base {
		b, p := r.Base[i], r.Pro[i]
		var pTotal float64
		for _, f := range p.Frac {
			pTotal += f
		}
		t.AddRow(b.Label, b.Frac[1], p.Frac[1], b.Frac[3], p.Frac[3], pTotal, p.Speedup)
	}
	t.AddRow("geomean", "", "", "", "", "", r.GeomeanSpeedup)
	return t
}

// Fig15Result is prefetch usefulness: where prefetched lines were when
// demanded.
type Fig15Result struct {
	Algos []string
	// Fractions of all prefetch fills: demanded at L1/L2/L3 (late merges
	// count as L1-adjacent partial hits) or evicted unused.
	L1, L2, L3, Late, Evicted []float64
	// AvgUseful is the demanded share (paper: 62.7% average).
	AvgUseful float64
}

// Fig15 reproduces Figure 15.
func (h *Harness) Fig15() (*Fig15Result, error) {
	var jobs jobList
	for _, algo := range allAlgosOrdered() {
		for _, ds := range h.datasetsFor(algo) {
			jobs.add(h, algo, ds, SchemeProdigy, runVariant{})
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig15Result{}
	var usefuls []float64
	for _, algo := range allAlgosOrdered() {
		var l1, l2, l3, late, evict, fills float64
		for _, ds := range h.datasetsFor(algo) {
			r, err := h.RunOne(algo, ds, SchemeProdigy)
			if err != nil {
				return nil, err
			}
			l1 += float64(r.Res.Cache.PrefetchL1Hits)
			l2 += float64(r.Res.Cache.PrefetchL2Hits)
			l3 += float64(r.Res.Cache.PrefetchL3Hits)
			late += float64(r.Res.Sim.LateUsedFills)
			evict += float64(r.Res.Cache.PrefetchEvicted)
			fills += float64(r.Res.Cache.PrefetchFills)
		}
		if fills == 0 {
			fills = 1
		}
		out.Algos = append(out.Algos, algo)
		out.L1 = append(out.L1, l1/fills)
		out.L2 = append(out.L2, l2/fills)
		out.L3 = append(out.L3, l3/fills)
		out.Late = append(out.Late, late/fills)
		out.Evicted = append(out.Evicted, evict/fills)
		usefuls = append(usefuls, (l1+l2+l3+late)/fills)
	}
	out.AvgUseful = stats.Mean(usefuls)
	return out, nil
}

// Table renders the figure.
func (r *Fig15Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 15: prefetch usefulness (fraction of prefetch fills)",
		"algo", "L1-hit", "L2-hit", "L3-hit", "late-merge", "evicted-unused")
	for i, a := range r.Algos {
		t.AddRow(a, r.L1[i], r.L2[i], r.L3[i], r.Late[i], r.Evicted[i])
	}
	t.AddRow("avg useful", r.AvgUseful, "", "", "", "")
	return t
}

// Fig16Result is the share of prefetchable LLC misses converted to hits.
type Fig16Result struct {
	Algos []string
	// SavedFrac per algo (paper average: 85.1%).
	SavedFrac []float64
	Avg       float64
}

// Fig16 reproduces Figure 16: of the baseline's in-DIG LLC misses, how
// many no longer reach DRAM as demand misses under Prodigy.
func (h *Harness) Fig16() (*Fig16Result, error) {
	var jobs jobList
	for _, algo := range allAlgosOrdered() {
		for _, ds := range h.datasetsFor(algo) {
			jobs.add(h, algo, ds, SchemeNone, runVariant{})
			jobs.add(h, algo, ds, SchemeProdigy, runVariant{})
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig16Result{}
	for _, algo := range allAlgosOrdered() {
		var saved []float64
		for _, ds := range h.datasetsFor(algo) {
			base, err := h.RunOne(algo, ds, SchemeNone)
			if err != nil {
				return nil, err
			}
			pro, err := h.RunOne(algo, ds, SchemeProdigy)
			if err != nil {
				return nil, err
			}
			if base.MissesInDIG == 0 {
				continue
			}
			remaining := float64(pro.MissesInDIG)
			saved = append(saved, 1-remaining/float64(base.MissesInDIG))
		}
		out.Algos = append(out.Algos, algo)
		out.SavedFrac = append(out.SavedFrac, stats.Mean(saved))
	}
	out.Avg = stats.Mean(out.SavedFrac)
	return out, nil
}

// Table renders the figure.
func (r *Fig16Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 16: prefetchable LLC misses converted to hits",
		"algo", "saved(%)")
	for i, a := range r.Algos {
		t.AddRow(a, 100*r.SavedFrac[i])
	}
	t.AddRow("avg", 100*r.Avg)
	return t
}

// Fig17Result compares prefetchers per algorithm.
type Fig17Result struct {
	Algos   []string
	Schemes []Scheme
	// Speedup[algo][scheme index] vs baseline, geomean over datasets.
	Speedup map[string][]float64
	// Geomean per scheme across algos (graph-only for AJ/DROPLET, as the
	// paper omits them on non-graph workloads).
	Geomean []float64
}

// Fig17 reproduces Figure 17: baseline, Ainsworth & Jones, DROPLET, IMP,
// and Prodigy. Paper: Prodigy wins by 1.5× (A&J), 1.6× (DROPLET), 2.3×
// (IMP).
func (h *Harness) Fig17() (*Fig17Result, error) {
	schemes := []Scheme{SchemeNone, SchemeAJ, SchemeDroplet, SchemeIMP, SchemeProdigy}
	var jobs jobList
	for _, algo := range allAlgosOrdered() {
		for _, s := range schemes {
			if (s == SchemeAJ || s == SchemeDroplet) && !isGraphAlgo(algo) {
				continue
			}
			for _, ds := range h.datasetsFor(algo) {
				jobs.add(h, algo, ds, s, runVariant{})
			}
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig17Result{Schemes: schemes, Speedup: map[string][]float64{}}
	perScheme := make([][]float64, len(schemes))
	for _, algo := range allAlgosOrdered() {
		graphAlgo := isGraphAlgo(algo)
		out.Algos = append(out.Algos, algo)
		for si, s := range schemes {
			if (s == SchemeAJ || s == SchemeDroplet) && !graphAlgo {
				out.Speedup[algo] = append(out.Speedup[algo], 0)
				continue
			}
			var sp []float64
			for _, ds := range h.datasetsFor(algo) {
				base, err := h.RunOne(algo, ds, SchemeNone)
				if err != nil {
					return nil, err
				}
				r, err := h.RunOne(algo, ds, s)
				if err != nil {
					return nil, err
				}
				sp = append(sp, base.Speedup(r))
			}
			g := stats.Geomean(sp)
			out.Speedup[algo] = append(out.Speedup[algo], g)
			perScheme[si] = append(perScheme[si], g)
		}
	}
	for _, sp := range perScheme {
		out.Geomean = append(out.Geomean, stats.Geomean(sp))
	}
	return out, nil
}

// Table renders the figure.
func (r *Fig17Result) Table() *stats.Table {
	headers := []string{"algo"}
	for _, s := range r.Schemes {
		headers = append(headers, string(s))
	}
	t := stats.NewTable("Fig. 17: speedup vs non-prefetching baseline", headers...)
	for _, a := range r.Algos {
		cells := []interface{}{a}
		for _, v := range r.Speedup[a] {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	cells := []interface{}{"geomean"}
	for _, v := range r.Geomean {
		cells = append(cells, v)
	}
	t.AddRow(cells...)
	return t
}

// Fig18Result is Prodigy's speedup on HubSort-reordered graphs.
type Fig18Result struct {
	Algos   []string
	Speedup []float64
	Geomean float64
}

// Fig18 reproduces Figure 18 (paper: 2.3× average on reordered inputs —
// reordering alone does not remove the irregular-miss bottleneck).
func (h *Harness) Fig18() (*Fig18Result, error) {
	var jobs jobList
	for _, algo := range workloads.GraphAlgos {
		for _, ds := range h.Cfg.Datasets {
			jobs.add(h, algo, ds, SchemeNone, runVariant{hubSorted: true})
			jobs.add(h, algo, ds, SchemeProdigy, runVariant{hubSorted: true})
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig18Result{}
	var all []float64
	for _, algo := range workloads.GraphAlgos {
		var sp []float64
		for _, ds := range h.Cfg.Datasets {
			base, err := h.run(algo, ds, SchemeNone, runVariant{hubSorted: true})
			if err != nil {
				return nil, err
			}
			pro, err := h.run(algo, ds, SchemeProdigy, runVariant{hubSorted: true})
			if err != nil {
				return nil, err
			}
			sp = append(sp, base.Speedup(pro))
		}
		g := stats.Geomean(sp)
		out.Algos = append(out.Algos, algo)
		out.Speedup = append(out.Speedup, g)
		all = append(all, sp...)
	}
	out.Geomean = stats.Geomean(all)
	return out, nil
}

// Table renders the figure.
func (r *Fig18Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 18: Prodigy speedup on HubSort-reordered graphs",
		"algo", "speedup(x)")
	for i, a := range r.Algos {
		t.AddRow(a, r.Speedup[i])
	}
	t.AddRow("geomean", r.Geomean)
	return t
}

// Fig19Result is the energy comparison.
type Fig19Result struct {
	Labels []string
	// BaseBreakdown/ProBreakdown are per-workload [core, cache, dram,
	// other] in nJ, Pro normalized per workload by the baseline total in
	// NormPro.
	BaseTotal, ProTotal []float64
	NormPro             []float64
	// AvgSaving is baseline/Prodigy energy (paper: 1.6×).
	AvgSaving float64
}

// Fig19 reproduces Figure 19.
func (h *Harness) Fig19() (*Fig19Result, error) {
	var jobs jobList
	jobs.addCells(h, h.GraphCells(true), SchemeNone, SchemeProdigy)
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Fig19Result{}
	var savings []float64
	for _, cell := range h.GraphCells(true) {
		base, err := h.RunOne(cell.Algo, cell.Dataset, SchemeNone)
		if err != nil {
			return nil, err
		}
		pro, err := h.RunOne(cell.Algo, cell.Dataset, SchemeProdigy)
		if err != nil {
			return nil, err
		}
		eb := EnergyOf(base, h.Cfg.Cores).Total()
		ep := EnergyOf(pro, h.Cfg.Cores).Total()
		out.Labels = append(out.Labels, base.Label)
		out.BaseTotal = append(out.BaseTotal, eb)
		out.ProTotal = append(out.ProTotal, ep)
		out.NormPro = append(out.NormPro, ep/eb)
		savings = append(savings, eb/ep)
	}
	out.AvgSaving = stats.Geomean(savings)
	return out, nil
}

// Table renders the figure.
func (r *Fig19Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 19: energy (Prodigy normalized to baseline)",
		"workload", "normalized-energy", "saving(x)")
	for i, l := range r.Labels {
		t.AddRow(l, r.NormPro[i], r.BaseTotal[i]/r.ProTotal[i])
	}
	t.AddRow("avg", "", r.AvgSaving)
	return t
}

// allAlgosOrdered returns the nine algorithms in paper order.
func allAlgosOrdered() []string {
	return []string{"bc", "bfs", "cc", "pr", "sssp", "spmv", "symgs", "cg", "is"}
}
