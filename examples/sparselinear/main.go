// Sparse linear algebra example: the HPCG kernels (SpMV and SymGS) under
// Prodigy. SymGS demonstrates the traversal-direction handling: its
// backward sweep walks the row offsets descending, and the prefetcher
// follows.
//
// Run: go run ./examples/sparselinear
package main

import (
	"fmt"
	"log"

	"prodigy"
)

func main() {
	// QuickConfig sets Verify: every run re-checks its numerical result
	// against an independent reference, and RunOne fails if it is wrong,
	// so outputs are shown to stay correct under prefetching.
	cfg := prodigy.QuickConfig()
	h := prodigy.NewHarness(cfg)

	for _, algo := range []string{"spmv", "symgs", "cg"} {
		base, err := h.RunOne(algo, "", prodigy.SchemeNone)
		if err != nil {
			log.Fatal(err)
		}
		pro, err := h.RunOne(algo, "", prodigy.SchemeProdigy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s baseline %9d cycles -> prodigy %9d cycles  (%.2fx, DRAM misses %d -> %d)\n",
			algo, base.Res.Cycles, pro.Res.Cycles, base.Speedup(pro),
			base.Res.Cache.DemandMem, pro.Res.Cache.DemandMem)
	}
	fmt.Println("\nall kernels verified against float64 references")
}
