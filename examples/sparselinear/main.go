// Sparse linear algebra example: the HPCG kernels (SpMV and SymGS) under
// Prodigy. SymGS demonstrates the traversal-direction handling: its
// backward sweep walks the row offsets descending, and the prefetcher
// follows.
//
// Run: go run ./examples/sparselinear
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prodigy/internal/exp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// exp.Quick sets Verify: every run re-checks its numerical result
	// against an independent reference, and RunOne fails if it is wrong,
	// so outputs are shown to stay correct under prefetching.
	h := exp.New(exp.Quick())

	for _, algo := range []string{"spmv", "symgs", "cg"} {
		base, err := h.RunOne(algo, "", exp.SchemeNone)
		if err != nil {
			return err
		}
		pro, err := h.RunOne(algo, "", exp.SchemeProdigy)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s baseline %9d cycles -> prodigy %9d cycles  (%.2fx, DRAM misses %d -> %d)\n",
			algo, base.Res.Cycles, pro.Res.Cycles, base.Speedup(pro),
			base.Res.Cache.DemandMem, pro.Res.Cache.DemandMem)
	}
	fmt.Fprintln(w, "\nall kernels verified against float64 references")
	return nil
}
