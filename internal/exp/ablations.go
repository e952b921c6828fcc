package exp

import (
	"prodigy/internal/core"
	"prodigy/internal/stats"
)

// prodigyIssueCounts sums per-core Prodigy line counters for a run.
func prodigyIssueCounts(r *Run) (single, ranged uint64) {
	for _, s := range r.Res.SchemeStats {
		if ps, ok := s.(core.Stats); ok {
			single += ps.LinesSingle
			ranged += ps.LinesRanged
		}
	}
	return single, ranged
}

// AblationResult is one design-knob sweep: speedup over the
// non-prefetching baseline per variant, geomean over the chosen
// workloads.
type AblationResult struct {
	Name     string
	Variants []string
	Speedup  []float64
}

// Table renders an ablation.
func (r *AblationResult) Table() *stats.Table {
	t := stats.NewTable("Ablation: "+r.Name, "variant", "speedup(x)")
	for i, v := range r.Variants {
		t.AddRow(v, r.Speedup[i])
	}
	return t
}

// ablationWorkloads is a representative subset: one deep-DIG graph kernel,
// one ranged-heavy kernel, one sequential-trigger kernel.
func (h *Harness) ablationWorkloads() []struct{ Algo, Dataset string } {
	ds := h.Cfg.Datasets[0]
	return []struct{ Algo, Dataset string }{
		{"bfs", ds}, {"pr", ds}, {"spmv", ""},
	}
}

func (h *Harness) ablate(name string, variants []string, vs []runVariant) (*AblationResult, error) {
	var jobs jobList
	for _, v := range vs {
		for _, cell := range h.ablationWorkloads() {
			jobs.add(h, cell.Algo, cell.Dataset, SchemeNone, runVariant{})
			jobs.add(h, cell.Algo, cell.Dataset, SchemeProdigy, v)
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &AblationResult{Name: name, Variants: variants}
	for _, v := range vs {
		var sp []float64
		for _, cell := range h.ablationWorkloads() {
			base, err := h.RunOne(cell.Algo, cell.Dataset, SchemeNone)
			if err != nil {
				return nil, err
			}
			r, err := h.run(cell.Algo, cell.Dataset, SchemeProdigy, v)
			if err != nil {
				return nil, err
			}
			sp = append(sp, base.Speedup(r))
		}
		out.Speedup = append(out.Speedup, stats.Geomean(sp))
	}
	return out, nil
}

// AblationLookahead sweeps fixed look-ahead distances against the paper's
// depth heuristic (Section IV-C1 claims low sensitivity within 4× of the
// ideal distance).
func (h *Harness) AblationLookahead() (*AblationResult, error) {
	return h.ablate("look-ahead distance",
		[]string{"heuristic", "fixed-1", "fixed-4", "fixed-16", "fixed-64"},
		[]runVariant{{}, {lookahead: 1}, {lookahead: 4}, {lookahead: 16}, {lookahead: 64}})
}

// AblationDropping isolates multi-sequence initialization plus
// drop-on-catch-up against a single-sequence design (the structural
// timeliness difference vs Ainsworth & Jones).
func (h *Harness) AblationDropping() (*AblationResult, error) {
	return h.ablate("multi-sequence + dropping",
		[]string{"full (multi+drop)", "single-sequence"},
		[]runVariant{{}, {singleSeq: true}})
}

// AblationRanged isolates ranged-indirection support (the structural
// coverage difference vs IMP/DROPLET).
func (h *Harness) AblationRanged() (*AblationResult, error) {
	return h.ablate("ranged indirection support",
		[]string{"w0+w1", "w0 only"},
		[]runVariant{{}, {noRanged: true}})
}

// AblationFillLevel compares filling prefetches into the L1D (the paper's
// design) against stopping at the L2.
func (h *Harness) AblationFillLevel() (*AblationResult, error) {
	return h.ablate("prefetch fill level",
		[]string{"fill-L1", "fill-L2"},
		[]runVariant{{}, {fillL2: true}})
}
