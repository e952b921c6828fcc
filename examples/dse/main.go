// Design-space exploration example: how the PFHR file size and the
// look-ahead distance shape Prodigy's speedup (the Fig. 12 experiment and
// the Section IV-C1 distance heuristic), on one workload.
//
// Run: go run ./examples/dse
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"prodigy/internal/exp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := exp.Quick()
	h := exp.New(cfg)

	base, err := h.RunOne("bfs", "lj", exp.SchemeNone)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "PFHR file size sweep on bfs (geomean over %s):\n", strings.Join(cfg.Datasets, "/"))
	r12, err := h.Fig12()
	if err != nil {
		return err
	}
	for i, sz := range r12.Sizes {
		fmt.Fprintf(w, "  %2d PFHRs: %.2fx vs 4-entry baseline\n", sz, r12.Speedup["bfs"][i])
	}

	fmt.Fprintln(w, "\nlook-ahead distance ablation (geomean over bfs/pr/spmv):")
	la, err := h.AblationLookahead()
	if err != nil {
		return err
	}
	for i, v := range la.Variants {
		fmt.Fprintf(w, "  %-10s %.2fx\n", v, la.Speedup[i])
	}

	pro, err := h.RunOne("bfs", "lj", exp.SchemeProdigy)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndefault design point on bfs-lj: %.2fx\n", base.Speedup(pro))
	return nil
}
