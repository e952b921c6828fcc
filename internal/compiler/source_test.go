package compiler_test

import (
	"testing"

	"prodigy/internal/compiler"
	"prodigy/internal/compiler/frontend"
	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/workloads"
)

// kernelsByAlgo lifts every kernel of internal/workloads from its Go
// source.
func kernelsByAlgo(t *testing.T) map[string]*frontend.Kernel {
	t.Helper()
	kernels, err := frontend.ExtractDir("../workloads")
	if err != nil {
		t.Fatalf("ExtractDir: %v", err)
	}
	byAlgo := map[string]*frontend.Kernel{}
	for _, k := range kernels {
		byAlgo[k.Algo] = k
	}
	return byAlgo
}

// deriveOn builds one workload for real and derives its kernel's DIG from
// source over the workload's actual memspace layout.
func deriveOn(t *testing.T, byAlgo map[string]*frontend.Kernel, algo, dataset string) (registered, derived *dig.DIG, w *workloads.Workload) {
	t.Helper()
	k := byAlgo[algo]
	if k == nil {
		t.Fatalf("kernel %q not extracted", algo)
	}
	w, err := workloads.Build(algo, dataset, 1, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	f, err := k.LiftIR(w.Space)
	if err != nil {
		t.Fatalf("LiftIR: %v", err)
	}
	derived, err = compiler.GenerateDIG(f)
	if err != nil {
		t.Fatalf("GenerateDIG: %v", err)
	}
	return w.DIG, derived, w
}

// datasetsFor lists the datasets a kernel is checked on: po and lj for
// graph kernels, none for the others.
func datasetsFor(algo string) []string {
	if workloads.IsGraphAlgo(algo) {
		return []string{"po", "lj"}
	}
	return []string{""}
}

// TestCompilerMatchesManualAnnotationAllKernels is the paper's key
// software claim (Section III-B): the compiler pass, run on each kernel's
// unmodified Go source, derives the same DIG the programmer registers by
// hand. Both DIGs are bound to the workload's real memspace layout and
// compared whole (dig.Equal: nodes with bases, bounds and sizes, the edge
// multiset, triggers).
func TestCompilerMatchesManualAnnotationAllKernels(t *testing.T) {
	byAlgo := kernelsByAlgo(t)
	for _, algo := range workloads.AllAlgos {
		t.Run(algo, func(t *testing.T) {
			for _, ds := range datasetsFor(algo) {
				registered, derived, _ := deriveOn(t, byAlgo, algo, ds)
				if algo == "bc" {
					// bc's annotation is a programmer refinement: a strict
					// subset of the compiler's edges (the two sources "can
					// complement each other"), allowed by its dig-drift
					// directive (see frontend's TestBCDriftIsTheDocumentedRefinement).
					if !dig.Subset(registered, derived) {
						t.Errorf("%s: registered DIG is not a subset of the derived one.\nregistered:\n%s\nderived:\n%s",
							ds, registered, derived)
					}
					continue
				}
				if !dig.Equal(registered, derived) {
					t.Errorf("%s: derived DIG differs from the registered one.\nregistered:\n%s\nderived:\n%s",
						ds, registered, derived)
				}
			}
		})
	}
}

// The compiler never misses a data structure the hand annotation has, and
// vice versa, so its coverage matches the Fig. 13 measurement either way.
func TestDerivedDIGCoversSameAddresses(t *testing.T) {
	byAlgo := kernelsByAlgo(t)
	for _, algo := range workloads.AllAlgos {
		registered, derived, w := deriveOn(t, byAlgo, algo, datasetsFor(algo)[0])
		for _, r := range w.Space.Regions() {
			mid := r.BaseAddr + r.Bytes()/2
			if registered.Covers(mid) != derived.Covers(mid) {
				t.Errorf("%s: coverage mismatch for %s", algo, r.Name)
			}
		}
	}
}
