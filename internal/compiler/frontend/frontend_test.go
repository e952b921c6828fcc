package frontend

import (
	"sort"
	"testing"

	"prodigy/internal/compiler"
	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/workloads"
)

const workloadsDir = "../../workloads"

// driftFree are the kernels whose hand-written registration must match the
// compiler-extracted DIG exactly.
var driftFree = []string{"bfs", "cc", "cg", "is", "pr", "spmv", "sssp", "symgs"}

func extractAll(t *testing.T) map[string]*Kernel {
	t.Helper()
	kernels, err := ExtractDir(workloadsDir)
	if err != nil {
		t.Fatalf("ExtractDir: %v", err)
	}
	byAlgo := map[string]*Kernel{}
	for _, k := range kernels {
		if byAlgo[k.Algo] != nil {
			t.Fatalf("duplicate kernel %q", k.Algo)
		}
		byAlgo[k.Algo] = k
	}
	return byAlgo
}

// TestExtractionMatchesRegistration is the extraction golden test: for
// every drift-free kernel the lifted-and-analyzed DIG must agree with the
// hand-written dig.Builder calls on edges and triggers.
func TestExtractionMatchesRegistration(t *testing.T) {
	byAlgo := extractAll(t)
	if len(byAlgo) != 10 {
		t.Fatalf("extracted %d kernels, want 10", len(byAlgo))
	}
	for _, algo := range driftFree {
		k := byAlgo[algo]
		if k == nil {
			t.Errorf("kernel %q not extracted", algo)
			continue
		}
		if k.AllowedDrift {
			t.Errorf("%s: unexpectedly carries a dig-drift allow directive", algo)
		}
		if len(k.Registered.Nodes) != len(k.Arrays) {
			t.Errorf("%s: %d registered nodes for %d arrays", algo, len(k.Registered.Nodes), len(k.Arrays))
		}
		for _, d := range k.Drift() {
			t.Errorf("%s: drift at %s: %s", algo, k.Fset.Position(d.Pos), d.Msg)
		}
	}
}

// TestBCDriftIsTheDocumentedRefinement pins bc's intentional drift: the
// annotation keeps 4 of the 8 compiler-derivable edges (see buildBC's doc
// comment), so extraction must report exactly the 4 dropped edges — and
// the build function must carry the dig-drift allow directive.
func TestBCDriftIsTheDocumentedRefinement(t *testing.T) {
	k := extractAll(t)["bc"]
	if k == nil {
		t.Fatal("bc not extracted")
	}
	if !k.AllowedDrift {
		t.Error("bc: missing //lint:allow dig-drift directive on buildBC")
	}
	if k.AllowReason == "" {
		t.Error("bc: dig-drift directive has no reason")
	}
	wantExtra := map[EdgeKey]bool{
		{Src: "workQueue", Dst: "delta", Type: dig.SingleValued}:  true,
		{Src: "workQueue", Dst: "scores", Type: dig.SingleValued}: true,
		{Src: "edgeList", Dst: "sigma", Type: dig.SingleValued}:   true,
		{Src: "edgeList", Dst: "delta", Type: dig.SingleValued}:   true,
	}
	reg := map[EdgeKey]bool{}
	for _, e := range k.Registered.Edges {
		reg[e] = true
	}
	var extra []EdgeKey
	for _, e := range k.Extracted.Edges {
		if !reg[e] {
			extra = append(extra, e)
		}
	}
	if len(extra) != len(wantExtra) {
		t.Fatalf("bc: %d extracted-but-unregistered edges %v, want %d", len(extra), extra, len(wantExtra))
	}
	for _, e := range extra {
		if !wantExtra[e] {
			t.Errorf("bc: unexpected extra edge %s", e)
		}
	}
	// Every registered edge and trigger must still be compiler-derivable:
	// the refinement only drops edges, it never invents them.
	for _, d := range k.Drift() {
		msg := d.Msg
		if len(msg) >= 16 && msg[:16] == "registered edge " {
			t.Errorf("bc: %s", msg)
		}
		if len(msg) >= 18 && msg[:18] == "registered trigger" {
			t.Errorf("bc: %s", msg)
		}
	}
}

// TestMemlatDriftIsTheDocumentedGap pins memlat's intentional drift in
// the opposite direction from bc's: its hand registration carries a self
// trav edge and trigger that the compiler cannot derive, because the
// run closure is an address-valued pointer chase, not a ranged loop
// nest. The allow directive must be present, and the drift must be
// exactly those two underivable registrations — nothing extracted goes
// unregistered.
func TestMemlatDriftIsTheDocumentedGap(t *testing.T) {
	k := extractAll(t)["buildmemlat"]
	if k == nil {
		t.Fatal("memlat not extracted")
	}
	if !k.AllowedDrift {
		t.Error("memlat: missing //lint:allow dig-drift directive on BuildMemlat")
	}
	if k.AllowReason == "" {
		t.Error("memlat: dig-drift directive has no reason")
	}
	if len(k.Extracted.Edges) != 0 || len(k.Extracted.Triggers) != 0 {
		t.Errorf("memlat: compiler unexpectedly derived edges %v triggers %v from a pointer chase",
			k.Extracted.Edges, k.Extracted.Triggers)
	}
	if got := len(k.Registered.Edges); got != 1 {
		t.Errorf("memlat: %d registered edges, want the 1 self edge", got)
	}
	drifts := k.Drift()
	if len(drifts) != 2 {
		for _, d := range drifts {
			t.Logf("drift: %s", d.Msg)
		}
		t.Fatalf("memlat: %d drift diagnostics, want 2 (self edge + trigger)", len(drifts))
	}
}

// TestDeriveDIGMatchesRuntime builds each drift-free workload for real,
// lifts its kernel over the actual memspace layout, and checks that the
// DIG the compiler path produces is identical (dig.Equal: nodes with
// bases/bounds/sizes, edge multiset, triggers) to the one the hand
// annotation built at runtime.
func TestDeriveDIGMatchesRuntime(t *testing.T) {
	byAlgo := extractAll(t)
	for _, algo := range driftFree {
		k := byAlgo[algo]
		if k == nil {
			t.Errorf("kernel %q not extracted", algo)
			continue
		}
		w, err := workloads.Build(algo, "po", 1, workloads.Options{Scale: graph.ScaleTiny})
		if err != nil {
			t.Errorf("%s: Build: %v", algo, err)
			continue
		}
		f, err := k.LiftIR(w.Space)
		if err != nil {
			t.Errorf("%s: LiftIR: %v", algo, err)
			continue
		}
		derived, err := compiler.GenerateDIG(f)
		if err != nil {
			t.Errorf("%s: GenerateDIG: %v", algo, err)
			continue
		}
		if !dig.Equal(w.DIG, derived) {
			t.Errorf("%s: derived DIG differs from runtime-registered DIG:\nruntime: %v\nderived: %v", algo, w.DIG, derived)
		}
	}
}

// TestKernelInventory pins the extraction surface: algo names, build
// function names, and array counts. A new kernel must show up here.
func TestKernelInventory(t *testing.T) {
	byAlgo := extractAll(t)
	want := map[string]struct {
		fn     string
		arrays int
	}{
		"bfs":   {"buildBFS", 4},
		"pr":    {"buildPR", 5},
		"cc":    {"buildCC", 3},
		"sssp":  {"buildSSSP", 6},
		"bc":    {"buildBC", 7},
		"spmv":  {"buildSpMVFrom", 5},
		"symgs": {"buildSymGS", 5},
		"cg":    {"buildCG", 7},
		"is":    {"buildIS", 3},
		// memlat's Workload Name is computed (fmt.Sprintf), so the algo
		// falls back to the lowercased build-function name.
		"buildmemlat": {"BuildMemlat", 1},
	}
	var got []string
	for algo := range byAlgo {
		got = append(got, algo)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("extracted kernels %v, want %d", got, len(want))
	}
	for algo, w := range want {
		k := byAlgo[algo]
		if k == nil {
			t.Errorf("kernel %q missing", algo)
			continue
		}
		if k.FuncName != w.fn {
			t.Errorf("%s: build function %q, want %q", algo, k.FuncName, w.fn)
		}
		if len(k.Arrays) != w.arrays {
			t.Errorf("%s: %d arrays, want %d", algo, len(k.Arrays), w.arrays)
		}
	}
}
