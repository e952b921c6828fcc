// Command prodigy-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	prodigy-bench [-quick] [-cores N] [-datasets po,lj] [-j N] [exp ...]
//
// With no experiment names, every experiment runs, in this order
// (exp.Experiments):
// table2 fig2 fig4 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19
// table3 ranged softwarepf scalability ablations.
// Every name is checked before any experiment runs.
//
// Each experiment's simulation grid fans out across -j worker goroutines
// (default GOMAXPROCS); tables are byte-identical at any -j. Progress is
// reported to stderr every -progress interval, and -json writes one JSON
// summary line per simulation for trend tracking. See the "Running
// experiments in parallel" section of EXPERIMENTS.md.
//
// Host-side profiling (docs/OBSERVABILITY.md): -cpuprofile writes a pprof
// CPU profile of the whole bench run, and -pprof serves net/http/pprof on
// the given address (e.g. localhost:6060) for live inspection of a long
// sweep.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"prodigy/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "tiny datasets / fewer cores (smoke test)")
	cores := flag.Int("cores", 0, "override core count (default 8, 2 in quick mode)")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default all five)")
	verify := flag.Bool("verify", false, "re-verify workload outputs after every run")
	workers := flag.Int("j", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial)")
	progress := flag.Duration("progress", 5*time.Second, "progress report interval on stderr (0 disables)")
	jsonPath := flag.String("json", "", "append per-run JSON summary lines to this file (\"-\" = stdout)")
	timeout := flag.Duration("run-timeout", 0, "wall-clock budget per simulation (0 = no limit)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	exps, err := exp.SelectExperiments(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpu profile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "closing cpu profile:", err)
			}
		}()
	}

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *verify {
		cfg.Verify = true
	}
	cfg.Parallelism = *workers
	cfg.RunTimeout = *timeout
	if *progress > 0 {
		cfg.Progress = os.Stderr
		cfg.ProgressInterval = *progress
	}
	if *jsonPath != "" {
		if *jsonPath == "-" {
			cfg.JSONLog = os.Stdout
		} else {
			f, err := os.OpenFile(*jsonPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "closing json log:", err)
				}
			}()
			cfg.JSONLog = f
		}
	}
	h := exp.New(cfg)
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Tables(h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		fmt.Printf("(%s took %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
