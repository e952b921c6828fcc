package exp

import (
	"fmt"
	"slices"

	"prodigy/internal/cache"
	"prodigy/internal/graph"
	"prodigy/internal/stats"
)

// Table3Row compares Prodigy against a prior work's best self-reported
// speedup on the algorithm subset that work evaluated (Table III).
type Table3Row struct {
	PriorWork string
	Algos     []string
	// PriorReported is the speedup the prior publication reports over a
	// non-prefetching baseline (paper's Table III, fixed reference
	// values).
	PriorReported float64
	// ProdigySpeedup is our measured geomean on the same algorithms.
	ProdigySpeedup float64
}

// Table3Result is the Table III reproduction.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 reproduces Table III: even against best-reported prior results,
// Prodigy's speedup on the common algorithm subsets is higher (paper:
// 2.8× vs 2.4× for A&J, 2.9× vs 1.9× for DROPLET, 4.6× vs 1.8× for IMP).
func (h *Harness) Table3() (*Table3Result, error) {
	rows := []Table3Row{
		{PriorWork: "Ainsworth & Jones [6]", Algos: []string{"bc", "bfs", "cc", "pr"}, PriorReported: 2.4},
		{PriorWork: "DROPLET [15]", Algos: []string{"bc", "bfs", "cc", "pr", "sssp"}, PriorReported: 1.9},
		{PriorWork: "IMP [99]", Algos: []string{"bfs", "pr", "spmv", "symgs"}, PriorReported: 1.8},
	}
	var jobs jobList
	for _, row := range rows {
		for _, algo := range row.Algos {
			for _, ds := range h.datasetsFor(algo) {
				jobs.add(h, algo, ds, SchemeNone, runVariant{})
				jobs.add(h, algo, ds, SchemeProdigy, runVariant{})
			}
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &Table3Result{}
	for _, row := range rows {
		var best []float64
		for _, algo := range row.Algos {
			// "Best-performing input data sets used as reported in prior
			// work": take the best dataset per algorithm.
			bestSp := 0.0
			for _, ds := range h.datasetsFor(algo) {
				base, err := h.RunOne(algo, ds, SchemeNone)
				if err != nil {
					return nil, err
				}
				pro, err := h.RunOne(algo, ds, SchemeProdigy)
				if err != nil {
					return nil, err
				}
				if sp := base.Speedup(pro); sp > bestSp {
					bestSp = sp
				}
			}
			best = append(best, bestSp)
		}
		row.ProdigySpeedup = stats.Geomean(best)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the table.
func (r *Table3Result) Table() *stats.Table {
	t := stats.NewTable("Table III: best-reported prior speedup vs Prodigy (same algorithms)",
		"prior work", "algorithms", "prior(x)", "prodigy(x)")
	for _, row := range r.Rows {
		algos := ""
		for i, a := range row.Algos {
			if i > 0 {
				algos += ","
			}
			algos += a
		}
		t.AddRow(row.PriorWork, algos, row.PriorReported, row.ProdigySpeedup)
	}
	return t
}

// RangedFractionResult measures how much of Prodigy's prefetch traffic the
// ranged indirection type generates (Section VI-C: 35–76%, avg 55.3%, on
// graph algorithms — the coverage single-valued-only prefetchers forfeit).
type RangedFractionResult struct {
	Algos []string
	Frac  []float64
	Avg   float64
}

// RangedFraction reproduces the Section VI-C ranged-indirection statistic.
func (h *Harness) RangedFraction() (*RangedFractionResult, error) {
	var jobs jobList
	for _, algo := range []string{"bc", "bfs", "cc", "pr", "sssp"} {
		for _, ds := range h.datasetsFor(algo) {
			jobs.add(h, algo, ds, SchemeProdigy, runVariant{})
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &RangedFractionResult{}
	for _, algo := range []string{"bc", "bfs", "cc", "pr", "sssp"} {
		var fracs []float64
		for _, ds := range h.datasetsFor(algo) {
			r, err := h.RunOne(algo, ds, SchemeProdigy)
			if err != nil {
				return nil, err
			}
			single, ranged := prodigyIssueCounts(r)
			if single+ranged > 0 {
				fracs = append(fracs, float64(ranged)/float64(single+ranged))
			}
		}
		out.Algos = append(out.Algos, algo)
		out.Frac = append(out.Frac, stats.Mean(fracs))
	}
	out.Avg = stats.Mean(out.Frac)
	return out, nil
}

// Table renders the statistic.
func (r *RangedFractionResult) Table() *stats.Table {
	t := stats.NewTable("§VI-C: share of prefetches from ranged indirection",
		"algo", "ranged fraction")
	for i, a := range r.Algos {
		t.AddRow(a, r.Frac[i])
	}
	t.AddRow("avg", r.Avg)
	return t
}

// Table2Row describes one graph dataset stand-in (Table II).
type Table2Row struct {
	Name, FullName  string
	Vertices, Edges int
	SizeMB          float64
	SizeOverLLC     float64
}

// Table2Result is the dataset inventory.
type Table2Result struct {
	Rows []Table2Row
	// LLCBytes is the shared L3 capacity the ratio is computed against.
	LLCBytes int
}

// Table2 reproduces Table II for the scaled stand-ins: vertex/edge counts,
// CSR footprint, and the size-to-LLC ratio that DESIGN.md §2 preserves.
func (h *Harness) Table2() (*Table2Result, error) {
	full := map[string]string{
		"po": "pokec", "lj": "livejournal", "or": "orkut",
		"sk": "sk-2005", "wb": "webbase-2001",
	}
	ccfg := cache.ScaledDefault(h.Cfg.Cores)
	if h.Cfg.CacheOverride != nil {
		ccfg = *h.Cfg.CacheOverride
	}
	out := &Table2Result{LLCBytes: ccfg.L3Size}
	for _, name := range h.Cfg.Datasets {
		if !slices.Contains(graph.DatasetNames(), name) {
			return nil, fmt.Errorf("exp: unknown dataset %q (want one of %v)", name, graph.DatasetNames())
		}
		g := graph.Load(name, h.Cfg.Scale)
		sz := float64(g.SizeBytes())
		out.Rows = append(out.Rows, Table2Row{
			Name: name, FullName: full[name],
			Vertices: g.NumNodes, Edges: g.NumEdges(),
			SizeMB:      sz / (1 << 20),
			SizeOverLLC: sz / float64(ccfg.L3Size),
		})
	}
	return out, nil
}

// Table renders the dataset inventory.
func (r *Table2Result) Table() *stats.Table {
	t := stats.NewTable("Table II: graph dataset stand-ins (scaled; see DESIGN.md §2)",
		"graph", "stands for", "vertices", "edges", "size(MB)", "size x LLC")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.FullName, row.Vertices, row.Edges, row.SizeMB, row.SizeOverLLC)
	}
	return t
}

// SoftwarePFResult compares pure software prefetching (Ainsworth & Jones,
// CGO'17) against Prodigy on PageRank, the comparison Section VI-C
// reports (paper: +7.6% for software prefetching vs 2x for Prodigy —
// static distance, no run-time feedback).
type SoftwarePFResult struct {
	Datasets        []string
	SoftwareSpeedup []float64
	ProdigySpeedup  []float64
}

// SoftwarePF reproduces the software-prefetching comparison.
func (h *Harness) SoftwarePF() (*SoftwarePFResult, error) {
	var jobs jobList
	for _, ds := range h.Cfg.Datasets {
		for _, s := range []Scheme{SchemeNone, SchemeSoftware, SchemeProdigy} {
			jobs.add(h, "pr", ds, s, runVariant{})
		}
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := &SoftwarePFResult{}
	for _, ds := range h.Cfg.Datasets {
		base, err := h.RunOne("pr", ds, SchemeNone)
		if err != nil {
			return nil, err
		}
		soft, err := h.RunOne("pr", ds, SchemeSoftware)
		if err != nil {
			return nil, err
		}
		pro, err := h.RunOne("pr", ds, SchemeProdigy)
		if err != nil {
			return nil, err
		}
		out.Datasets = append(out.Datasets, ds)
		out.SoftwareSpeedup = append(out.SoftwareSpeedup, base.Speedup(soft))
		out.ProdigySpeedup = append(out.ProdigySpeedup, base.Speedup(pro))
	}
	return out, nil
}

// Table renders the comparison.
func (r *SoftwarePFResult) Table() *stats.Table {
	t := stats.NewTable("§VI-C: software prefetching vs Prodigy on pr",
		"dataset", "software-pf(x)", "prodigy(x)")
	for i, ds := range r.Datasets {
		t.AddRow("pr-"+ds, r.SoftwareSpeedup[i], r.ProdigySpeedup[i])
	}
	t.AddRow("geomean", stats.Geomean(r.SoftwareSpeedup), stats.Geomean(r.ProdigySpeedup))
	return t
}
