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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"prodigy/internal/exp"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the whole command. It returns the exit code instead of exiting,
// so the deferred profile stop and log close run on every path, and a
// failed close makes the exit code non-zero.
func run(stdout, stderr io.Writer, args []string) (code int) {
	fs := flag.NewFlagSet("prodigy-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "tiny datasets / fewer cores (smoke test)")
	cores := fs.Int("cores", 0, "override core count (default 8, 2 in quick mode)")
	datasets := fs.String("datasets", "", "comma-separated dataset subset (default all five)")
	verify := fs.Bool("verify", false, "re-verify workload outputs after every run")
	workers := fs.Int("j", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial)")
	progress := fs.Duration("progress", 5*time.Second, "progress report interval on stderr (0 disables)")
	jsonPath := fs.String("json", "", "append per-run JSON summary lines to this file (\"-\" = stdout)")
	timeout := fs.Duration("run-timeout", 0, "wall-clock budget per simulation (0 = no limit)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exps, err := exp.SelectExperiments(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "pprof server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "closing cpu profile:", err)
				code = 1
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpu profile:", err)
			return 1
		}
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
		cfg.Progress = stderr
		cfg.ProgressInterval = *progress
	}
	if *jsonPath != "" {
		if *jsonPath == "-" {
			cfg.JSONLog = stdout
		} else {
			f, err := os.OpenFile(*jsonPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(stderr, "closing json log:", err)
					code = 1
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
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t)
		}
		fmt.Fprintf(stdout, "(%s took %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
