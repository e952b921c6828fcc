// Graph analytics example: run the paper's GAP kernels (BFS and PageRank)
// on a scaled social-network dataset under four prefetching schemes, and
// show where Prodigy's advantage comes from (DRAM-stall reduction and
// ranged-indirection coverage).
//
// Run: go run ./examples/graphanalytics
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := exp.Quick()
	cfg.Cores = 4
	h := exp.New(cfg)

	schemes := []exp.Scheme{exp.SchemeNone, exp.SchemeGHB, exp.SchemeIMP, exp.SchemeProdigy}
	for _, algo := range []string{"bfs", "pr"} {
		fmt.Fprintf(w, "== %s on livejournal (scaled) ==\n", algo)
		var base *exp.Run
		for _, s := range schemes {
			r, err := h.RunOne(algo, "lj", s)
			if err != nil {
				return err
			}
			if s == exp.SchemeNone {
				base = r
			}
			fmt.Fprintf(w, "  %-12s %9d cycles  speedup %.2fx  DRAM-stall %4.1f%%  LLC misses %d\n",
				s, r.Res.Cycles, base.Speedup(r), 100*r.DRAMStallFrac(),
				r.Res.Cache.DemandMem)
		}
		fmt.Fprintln(w)
	}

	// The DIG that drives Prodigy on BFS (the paper's Fig. 5a).
	wl, err := workloads.Build("bfs", "lj", cfg.Cores, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BFS Data Indirection Graph:\n%v\n", wl.DIG)
	return nil
}
