// Command trace-dump prints the first instructions of a workload's
// per-core streams, annotated with the DIG node each memory access falls
// in — a quick way to see the single-valued / ranged patterns the
// prefetcher exploits.
//
// Usage:
//
//	trace-dump -algo bfs -dataset po -n 40 [-core 0]
//
// Exit codes: 0 success, 1 the workload could not be built, 2 usage
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prodigy/internal/graph"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the whole command; it returns the exit code.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("trace-dump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "bfs", "algorithm")
	dataset := fs.String("dataset", "po", "graph dataset (graph algorithms only)")
	n := fs.Int("n", 40, "instructions to print per core")
	coreSel := fs.Int("core", -1, "print a single core (-1 = all)")
	cores := fs.Int("cores", 2, "core count")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ds := *dataset
	if !workloads.IsGraphAlgo(*algo) {
		ds = ""
	}
	w, err := workloads.Build(*algo, ds, *cores, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	streams := trace.Collect(w.Cores, w.Run)
	for c, seq := range streams {
		if *coreSel >= 0 && c != *coreSel {
			continue
		}
		fmt.Fprintf(stdout, "--- core %d (%d instructions total) ---\n", c, len(seq))
		for i, in := range seq {
			if i >= *n {
				break
			}
			switch in.Kind {
			case trace.Load, trace.Store, trace.Atomic, trace.SoftPrefetch:
				node := "?"
				if nd := w.DIG.NodeContaining(uint64(in.Addr)); nd != nil {
					node = fmt.Sprintf("%s[%d]", nd.Name, nd.Index(uint64(in.Addr)))
				}
				fmt.Fprintf(stdout, "%6d  %-7s pc=%-4d %#010x  %s\n", i, in.Kind, in.PC, in.Addr, node)
			case trace.Branch:
				fmt.Fprintf(stdout, "%6d  %-7s pc=%-4d taken=%-5v loadDep=%v\n", i, in.Kind, in.PC, in.Taken(), in.LoadDep())
			default:
				fmt.Fprintf(stdout, "%6d  %-7s pc=%d\n", i, in.Kind, in.PC)
			}
		}
	}
	return 0
}
