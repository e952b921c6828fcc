package workloads

import (
	"strings"
	"testing"

	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/trace"
)

func tinyOpts() Options { return Options{Scale: graph.ScaleTiny} }

// runWorkload generates the full trace (no simulator) and returns it.
func runWorkload(t *testing.T, w *Workload) [][]trace.Instr {
	t.Helper()
	return trace.Collect(w.Cores, w.Run)
}

func TestAllWorkloadsBuildRunVerify(t *testing.T) {
	for _, lbl := range Labels() {
		lbl := lbl
		t.Run(lbl.Algo+"-"+lbl.Dataset, func(t *testing.T) {
			w, err := Build(lbl.Algo, lbl.Dataset, 2, tinyOpts())
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			out := runWorkload(t, w)
			total := 0
			for _, seq := range out {
				total += len(seq)
			}
			if total == 0 {
				t.Fatal("empty trace")
			}
			if err := w.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if w.DIG == nil || len(w.DIG.TriggerNodes()) == 0 {
				t.Fatal("missing DIG or trigger")
			}
		})
	}
}

func TestWorkloadsRerunnable(t *testing.T) {
	// Run twice on the same instance: state resets must make results
	// identical (the experiment harness reruns workloads per prefetcher).
	w, err := Build("bfs", "po", 2, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	a := runWorkload(t, w)
	if err := w.Verify(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	b := runWorkload(t, w)
	if err := w.Verify(); err != nil {
		t.Fatalf("second run: %v", err)
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatalf("core %d trace length changed: %d vs %d", c, len(a[c]), len(b[c]))
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("core %d instr %d differs", c, i)
			}
		}
	}
}

func TestTraceAddressesWithinSpace(t *testing.T) {
	// Every memory-op address in every workload must fall inside an
	// allocated region (catches indexing bugs loudly).
	for _, algo := range AllAlgos {
		ds := ""
		if IsGraphAlgo(algo) {
			ds = "po"
		}
		w, err := Build(algo, ds, 2, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		out := runWorkload(t, w)
		for c, seq := range out {
			for i, in := range seq {
				switch in.Kind {
				case trace.Load, trace.Store, trace.Atomic, trace.SoftPrefetch:
					if w.Space.FindRegion(uint64(in.Addr)) == nil {
						t.Fatalf("%s core %d instr %d: %v to unmapped %#x",
							algo, c, i, in.Kind, in.Addr)
					}
				}
			}
		}
	}
}

func TestDIGCoversTraceLoads(t *testing.T) {
	// The DIG's address ranges must cover nearly all irregular loads; this
	// is the invariant behind Fig. 13's 96% prefetchable-miss coverage.
	for _, algo := range AllAlgos {
		ds := ""
		if IsGraphAlgo(algo) {
			ds = "lj"
		}
		w, err := Build(algo, ds, 2, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		out := runWorkload(t, w)
		var covered, total int
		for _, seq := range out {
			for _, in := range seq {
				if in.Kind != trace.Load {
					continue
				}
				total++
				if w.DIG.Covers(uint64(in.Addr)) {
					covered++
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: no loads", algo)
		}
		if frac := float64(covered) / float64(total); frac < 0.9 {
			t.Errorf("%s: DIG covers only %.1f%% of loads", algo, 100*frac)
		}
	}
}

func TestDIGShapesMatchPaper(t *testing.T) {
	// Spot-check the documented DIG shapes.
	type shape struct {
		nodes, edges, depth int
	}
	want := map[string]shape{
		"bfs":   {4, 3, 4}, // Fig. 5(a)
		"pr":    {5, 2, 3},
		"cc":    {3, 2, 3},
		"sssp":  {6, 5, 4},
		"bc":    {7, 4, 4},
		"spmv":  {5, 3, 3},
		"symgs": {5, 3, 3},
		"cg":    {7, 3, 3},
		"is":    {3, 1, 2},
	}
	for algo, s := range want {
		ds := ""
		if IsGraphAlgo(algo) {
			ds = "po"
		}
		w, err := Build(algo, ds, 1, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(w.DIG.Nodes) != s.nodes || len(w.DIG.Edges) != s.edges || w.DIG.Depth() != s.depth {
			t.Errorf("%s DIG = %d nodes/%d edges/depth %d, want %d/%d/%d",
				algo, len(w.DIG.Nodes), len(w.DIG.Edges), w.DIG.Depth(),
				s.nodes, s.edges, s.depth)
		}
	}
}

func TestLargestDIGFitsHardwareTables(t *testing.T) {
	// Section VI-E sizes the tables at 16 entries; every workload's DIG
	// must fit.
	for _, algo := range AllAlgos {
		ds := ""
		if IsGraphAlgo(algo) {
			ds = "po"
		}
		w, err := Build(algo, ds, 1, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(w.DIG.Nodes) > 16 || len(w.DIG.Edges) > 16 {
			t.Errorf("%s DIG exceeds 16-entry tables: %d nodes, %d edges",
				algo, len(w.DIG.Nodes), len(w.DIG.Edges))
		}
	}
}

func TestBFSDepthsAgainstReference(t *testing.T) {
	w, err := Build("bfs", "wb", 4, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, w)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPMatchesDijkstraAllDatasets(t *testing.T) {
	for _, ds := range graph.DatasetNames() {
		w, err := Build("sssp", ds, 3, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, w)
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
	}
}

func TestSoftwarePrefetchEmitsInstructions(t *testing.T) {
	opts := tinyOpts()
	opts.SoftwarePrefetch = true
	w, err := Build("pr", "po", 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := runWorkload(t, w)
	n := 0
	for _, in := range out[0] {
		if in.Kind == trace.SoftPrefetch {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no software prefetch instructions emitted")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHubSortedVariantBuilds(t *testing.T) {
	opts := tinyOpts()
	opts.HubSorted = true
	for _, algo := range GraphAlgos {
		w, err := Build(algo, "lj", 2, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		runWorkload(t, w)
		if err := w.Verify(); err != nil {
			t.Fatalf("%s hubsorted: %v", algo, err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("nosuch", "", 1, tinyOpts()); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := Build("bfs", "", 1, tinyOpts()); err == nil {
		t.Error("graph algorithm without dataset should fail")
	}
	if _, err := Build("bfs", "po", 0, tinyOpts()); err == nil {
		t.Error("zero cores should fail")
	}
}

// TestBuildUnknownDataset: an unknown dataset is a user error. It must
// come back as an error naming the valid datasets, never as a panic from
// internal/graph.
func TestBuildUnknownDataset(t *testing.T) {
	for _, opts := range []Options{tinyOpts(), {Scale: graph.ScaleTiny, HubSorted: true}} {
		for _, algo := range []string{"bfs", "sssp", "pr"} {
			_, err := Build(algo, "zz", 1, opts)
			if err == nil || !strings.Contains(err.Error(), `"zz"`) || !strings.Contains(err.Error(), "lj") {
				t.Errorf("%s (hub-sorted %v) on unknown dataset: err = %v, want one naming zz and the datasets", algo, opts.HubSorted, err)
			}
		}
	}
}

func TestLabels(t *testing.T) {
	ls := Labels()
	if len(ls) != 29 {
		t.Fatalf("workload matrix = %d entries, want 29 (paper)", len(ls))
	}
	w := &Workload{Name: "pr", Dataset: "lj"}
	if w.Label() != "pr-lj" {
		t.Errorf("label = %q", w.Label())
	}
	w2 := &Workload{Name: "is"}
	if w2.Label() != "is" {
		t.Errorf("label = %q", w2.Label())
	}
}

func TestChunkPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 100} {
		for cores := 1; cores <= 5; cores++ {
			covered := 0
			prevHi := 0
			for c := 0; c < cores; c++ {
				lo, hi := chunk(n, cores, c)
				if lo < prevHi {
					t.Fatalf("chunk overlap: n=%d cores=%d", n, cores)
				}
				if lo > hi {
					t.Fatalf("chunk inverted: n=%d cores=%d c=%d", n, cores, c)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("chunks cover %d of %d (cores=%d)", covered, n, cores)
			}
		}
	}
}

func TestNonLeafDIGNodesAreReadOnlyDuringTraversal(t *testing.T) {
	// The DESIGN.md invariant: stores/atomics may only target leaf DIG
	// nodes or the not-yet-consumed tail of a trigger work queue. Verify
	// that no store targets a non-leaf, non-trigger node.
	for _, algo := range AllAlgos {
		ds := ""
		if IsGraphAlgo(algo) {
			ds = "po"
		}
		w, err := Build(algo, ds, 2, tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		out := runWorkload(t, w)
		for _, seq := range out {
			for _, in := range seq {
				if in.Kind != trace.Store && in.Kind != trace.Atomic {
					continue
				}
				n := w.DIG.NodeContaining(uint64(in.Addr))
				if n == nil {
					continue
				}
				if !w.DIG.IsLeaf(n.ID) && !n.IsTrigger {
					// keyDen in `is` is both scattered into and a leaf;
					// anything else here breaks the prefetch-read-safety
					// invariant.
					t.Fatalf("%s: store to non-leaf non-trigger DIG node %q", algo, n.Name)
				}
			}
		}
	}
}

func TestDIGDescribesActualIndirection(t *testing.T) {
	// For bfs: every edgeList load value must be a valid index into
	// visited (w0 edge contract), checked over the real trace.
	w, err := Build("bfs", "po", 1, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var edgeNode, visNode *dig.Node
	for i := range w.DIG.Nodes {
		switch w.DIG.Nodes[i].Name {
		case "edgeList":
			edgeNode = &w.DIG.Nodes[i]
		case "visited":
			visNode = &w.DIG.Nodes[i]
		}
	}
	if edgeNode == nil || visNode == nil {
		t.Fatal("missing DIG nodes")
	}
	out := runWorkload(t, w)
	for _, in := range out[0] {
		if in.Kind != trace.Load || !edgeNode.Contains(uint64(in.Addr)) {
			continue
		}
		v, ok := w.Space.ReadAt(uint64(in.Addr))
		if !ok {
			t.Fatal("edge load unmapped")
		}
		if v >= visNode.NumElems() {
			t.Fatalf("edge value %d out of visited range %d", v, visNode.NumElems())
		}
	}
}
