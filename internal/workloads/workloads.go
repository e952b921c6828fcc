// Package workloads implements the paper's nine irregular kernels — five
// graph algorithms from GAP (bc, bfs, cc, pr, sssp), two sparse linear
// algebra kernels from HPCG (spmv, symgs), and two NAS kernels (cg, is) —
// over the simulated address space.
//
// Each workload runs functionally on real arrays while emitting its
// instruction stream (internal/trace), registers its key data structures
// and traversal pattern as a DIG exactly as the annotated sources of
// Fig. 6 would, and verifies its own output against an independent
// reference implementation.
//
// Parallelism model: vertices/rows are partitioned contiguously across
// cores (OpenMP-static, which Section IV-E says Prodigy supports), with
// barriers at level/iteration boundaries. Trace generation is
// single-threaded and deterministic; the serialization of same-level
// atomics is one valid linearization of the parallel execution.
package workloads

import (
	"fmt"
	"slices"

	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/trace"
)

// Workload is one runnable benchmark instance.
type Workload struct {
	// Name is the algorithm ("bfs", "pr", ...).
	Name string
	// Dataset is the graph input name, empty for non-graph kernels.
	Dataset string
	// Space is the functional memory all arrays live in.
	Space *memspace.Space
	// DIG is the registered Data Indirection Graph (manual annotation
	// path, Fig. 6).
	DIG *dig.DIG
	// Cores is the number of cores the trace targets.
	Cores int
	// Run produces the instruction streams; call via trace.Gen.Run or
	// sim.Run.
	Run func(g *trace.Gen)
	// Verify checks the algorithm's output after Run has completed and
	// returns a descriptive error on mismatch.
	Verify func() error
}

// Label returns "algo-dataset" (or just the algorithm for non-graph
// kernels), matching the paper's workload labels (e.g. "pr-lj").
func (w *Workload) Label() string { return Label(w.Name, w.Dataset) }

// Label names a workload as "algo-dataset", or the algorithm alone when
// dataset is empty.
func Label(algo, dataset string) string {
	if dataset == "" {
		return algo
	}
	return algo + "-" + dataset
}

// Options tune workload construction.
type Options struct {
	// Scale selects dataset sizing.
	Scale graph.Scale
	// HubSorted uses HubSort-reordered graph inputs (Fig. 18).
	HubSorted bool
	// SoftwarePrefetch inserts software prefetch instructions at a fixed
	// look-ahead distance (the CGO'17 baseline; evaluated on pr).
	SoftwarePrefetch bool
}

// GraphAlgos lists the GAP kernels in paper order.
var GraphAlgos = []string{"bc", "bfs", "cc", "pr", "sssp"}

// OtherAlgos lists the non-graph kernels in paper order.
var OtherAlgos = []string{"spmv", "symgs", "cg", "is"}

// AllAlgos lists all nine kernels.
var AllAlgos = append(append([]string{}, GraphAlgos...), OtherAlgos...)

// IsGraphAlgo reports whether name takes a graph dataset.
func IsGraphAlgo(name string) bool {
	for _, a := range GraphAlgos {
		if a == name {
			return true
		}
	}
	return false
}

// Build constructs a workload instance. dataset is required for graph
// algorithms and ignored otherwise.
func Build(name, dataset string, cores int, opts Options) (*Workload, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("workloads: cores must be positive")
	}
	switch name {
	case "bfs":
		return buildBFS(dataset, cores, opts)
	case "pr":
		return buildPR(dataset, cores, opts)
	case "cc":
		return buildCC(dataset, cores, opts)
	case "sssp":
		return buildSSSP(dataset, cores, opts)
	case "bc":
		return buildBC(dataset, cores, opts)
	case "spmv":
		return buildSpMV(cores, opts)
	case "symgs":
		return buildSymGS(cores, opts)
	case "cg":
		return buildCG(cores, opts)
	case "is":
		return buildIS(cores, opts)
	}
	return nil, fmt.Errorf("workloads: unknown algorithm %q", name)
}

// Labels returns the full 29-workload matrix of the paper: the five graph
// algorithms crossed with the five datasets, plus the four non-graph
// kernels.
func Labels() []struct{ Algo, Dataset string } {
	var out []struct{ Algo, Dataset string }
	for _, a := range GraphAlgos {
		for _, d := range graph.DatasetNames() {
			out = append(out, struct{ Algo, Dataset string }{a, d})
		}
	}
	for _, a := range OtherAlgos {
		out = append(out, struct{ Algo, Dataset string }{a, ""})
	}
	return out
}

// chunk returns core c's contiguous [lo, hi) share of n items.
func chunk(n, cores, c int) (lo, hi int) {
	per := (n + cores - 1) / cores
	lo = c * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// balancedBounds returns cores+1 contiguous boundaries over [0, n) such
// that each core's summed work(i) is roughly equal. Power-law degree
// distributions make equal-count partitions wildly imbalanced (one core
// owns the hubs and the rest wait at the barrier); GAP-style builds
// balance by edges instead. Contiguity is preserved because Prodigy
// requires contiguously partitioned trigger structures (Section IV-E).
func balancedBounds(n, cores int, work func(i int) int) []int {
	total := 0
	for i := 0; i < n; i++ {
		total += work(i)
	}
	bounds := make([]int, cores+1)
	bounds[cores] = n
	acc, c := 0, 1
	for i := 0; i < n && c < cores; i++ {
		acc += work(i)
		if acc >= total*c/cores {
			bounds[c] = i + 1
			c++
		}
	}
	// Any unfilled boundaries collapse to n (fewer items than cores).
	for ; c < cores; c++ {
		bounds[c] = n
	}
	for c := 1; c <= cores; c++ {
		if bounds[c] < bounds[c-1] {
			bounds[c] = bounds[c-1]
		}
	}
	return bounds
}

// degreeBounds balances [0, n) vertices by out-degree + 1 using a CSR
// offset array.
func degreeBounds(offsets []uint32, n, cores int) []int {
	return balancedBounds(n, cores, func(i int) int {
		return int(offsets[i+1]-offsets[i]) + 1
	})
}

// loadGraph fetches the dataset variant a workload needs.
func loadGraph(dataset, variant string, opts Options) (*graph.Graph, error) {
	if dataset == "" {
		return nil, fmt.Errorf("workloads: graph algorithm needs a dataset")
	}
	if names := graph.DatasetNames(); !slices.Contains(names, dataset) {
		return nil, fmt.Errorf("workloads: unknown dataset %q (want one of %v)", dataset, names)
	}
	if opts.HubSorted {
		return graph.LoadHubSorted(dataset, opts.Scale, variant), nil
	}
	switch variant {
	case "undir":
		return graph.LoadUndirected(dataset, opts.Scale), nil
	case "weighted":
		return graph.LoadWeighted(dataset, opts.Scale), nil
	case "csc":
		return graph.LoadWithCSC(dataset, opts.Scale), nil
	default:
		return graph.Load(dataset, opts.Scale), nil
	}
}

// allocCSR copies a graph's CSR arrays into a Space.
func allocCSR(sp *memspace.Space, g *graph.Graph) (offsets, edges *memspace.U32) {
	offsets = sp.AllocU32("offsetList", g.NumNodes+1)
	copy(offsets.Data, g.OffsetList)
	edges = sp.AllocU32("edgeList", g.NumEdges())
	copy(edges.Data, g.EdgeList)
	return offsets, edges
}
