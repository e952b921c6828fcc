// Command prodigy-sim runs one or more workloads on the simulated machine
// and prints CPI stacks, cache behaviour, and prefetcher statistics.
//
// Usage:
//
//	prodigy-sim -algo bfs -dataset lj -scheme prodigy [-cores 8] [-tiny]
//
// -algo, -dataset, and -scheme accept comma-separated lists; the resulting
// grid runs on -j concurrent workers (default GOMAXPROCS) and reports in
// deterministic grid order. -json appends one machine-readable summary
// line per simulation.
//
// Observability (see docs/OBSERVABILITY.md): -trace writes a Chrome
// trace-event timeline per run (open in chrome://tracing or Perfetto),
// -metrics writes interval metrics JSONL, and -interval sets the sampling
// interval in simulated cycles. -pf-ledger writes one JSON line per
// prefetched line (issue cycle, fill cycle, level, demand-merged) — the
// raw material behind the accuracy/coverage/timeliness summary. When the
// grid has more than one cell the cell name is spliced into each output
// filename (out.json → out.bfs-po.prodigy.json).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/exp"
	"prodigy/internal/obs"
	"prodigy/internal/sim"
	"prodigy/internal/stats"
	"prodigy/internal/workloads"
)

func main() {
	algos := flag.String("algo", "bfs", "algorithm(s), comma-separated: bc bfs cc pr sssp spmv symgs cg is")
	datasets := flag.String("dataset", "lj", "graph dataset(s), comma-separated: po lj or sk wb (graph algorithms only)")
	schemes := flag.String("scheme", "prodigy", "prefetcher(s), comma-separated: none stride ghb-gdc imp aj droplet software-pf prodigy")
	cores := flag.Int("cores", 8, "core count")
	tiny := flag.Bool("tiny", false, "use tiny datasets (fast smoke run)")
	verify := flag.Bool("verify", true, "verify the workload output")
	workers := flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := flag.String("json", "", "append per-run JSON summary lines to this file (\"-\" = stdout)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event timeline (catapult JSON) to this file")
	metricsPath := flag.String("metrics", "", "write interval metrics JSONL to this file; counters include "+
		"cache.pf_timely, cache.pf_evicted_unused, sim.pf_issued, sim.pf_redundant, sim.pf_mshr_full, sim.late_merge")
	interval := flag.Int64("interval", obs.DefaultInterval, "metrics sampling interval in simulated cycles")
	ledgerPath := flag.String("pf-ledger", "", "write the per-line prefetch lifecycle ledger (JSONL) to this file")
	memlat := flag.Bool("memlat", false, "run the pointer-chase latency-calibration sweep instead of a workload grid (EXPERIMENTS.md)")
	memlatOut := flag.String("memlat-out", "", "write the memlat per-access latency histograms (JSONL, prodigy-stat hist) to this file")
	flag.Parse()

	if *memlat {
		os.Exit(runMemlat(*memlatOut))
	}

	cfg := exp.Default()
	cfg.Cores = *cores
	cfg.Verify = *verify
	if *tiny {
		q := exp.Quick()
		q.Cores = *cores
		q.Verify = *verify
		cfg = q
	}
	cfg.Parallelism = *workers
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

	// Build the requested grid; RunGrid fans it out across -j workers and
	// returns results in grid order.
	var cells []exp.Cell
	for _, algo := range strings.Split(*algos, ",") {
		dss := strings.Split(*datasets, ",")
		if !workloads.IsGraphAlgo(algo) {
			dss = []string{""}
		}
		for _, ds := range dss {
			for _, s := range strings.Split(*schemes, ",") {
				cells = append(cells, exp.Cell{Algo: algo, Dataset: ds, Scheme: exp.Scheme(s)})
			}
		}
	}

	single := len(cells) == 1
	if *tracePath != "" || *metricsPath != "" {
		itv := *interval
		cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
			return obs.OpenFiles(obs.CellPath(*tracePath, cell, single),
				obs.CellPath(*metricsPath, cell, single), itv)
		}
	}
	if *ledgerPath != "" {
		cfg.Ledger = func(cell string) (func(sim.PFLineEvent), func() error, error) {
			return openLedger(obs.CellPath(*ledgerPath, cell, single))
		}
	}
	h := exp.New(cfg)

	runs, err := h.RunGrid(cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, run := range runs {
		if i > 0 {
			fmt.Println(strings.Repeat("-", 64))
		}
		report(os.Stdout, run, cfg)
	}
}

// runMemlat runs the latency-calibration sweep on the Table-I machine
// (sim.Default(1)): one serialized pointer chase per hierarchy level
// plus the TLB-thrash variant, each recording a per-access latency
// histogram. The histograms go to -memlat-out as JSONL for
// `prodigy-stat hist -assert`; the summary table prints either way.
func runMemlat(outPath string) int {
	base := sim.Default(1)
	results, err := exp.MemlatSweep(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memlat:", err)
		return 1
	}
	rows := make([]obs.HistRow, len(results))
	for i, r := range results {
		rows[i] = r.Row
	}
	if outPath != "" {
		var w *bufio.Writer
		if outPath == "-" {
			w = bufio.NewWriter(os.Stdout)
		} else {
			f, err := os.Create(outPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memlat:", err)
				return 1
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "closing memlat output:", err)
				}
			}()
			w = bufio.NewWriter(f)
		}
		if err := obs.WriteHistRows(w, rows); err != nil {
			fmt.Fprintln(os.Stderr, "memlat:", err)
			return 1
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "memlat:", err)
			return 1
		}
	}
	t := stats.NewTable("Latency calibration (modal cycles per access)",
		"point", "pattern", "working set", "accesses", "mode", "expect", "ok")
	ok := true
	for _, r := range results {
		match := "yes"
		if r.Row.Mode != r.Row.Expect {
			match, ok = "NO", false
		}
		t.AddRow(r.Point.Name, r.Point.Cfg.Pattern, r.Point.Cfg.WorkingSet,
			r.Hist.Total(), r.Row.Mode, r.Row.Expect, match)
	}
	fmt.Println(t)
	if !ok {
		fmt.Fprintln(os.Stderr, "memlat: calibration failed: a plateau is off the configured latency")
		return 1
	}
	return 0
}

// openLedger builds a JSONL sink for the per-line prefetch ledger: one
// object per prefetched line with its issue/fill cycles and outcome bits.
func openLedger(path string) (func(sim.PFLineEvent), func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(w)
	hook := func(ev sim.PFLineEvent) { _ = enc.Encode(ev) }
	closer := func() error {
		ferr := w.Flush()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	return hook, closer, nil
}

// report prints the full human-readable statistics for one run.
func report(w io.Writer, run *exp.Run, cfg exp.Config) {

	fmt.Fprintf(w, "workload %s  scheme %s  cores %d\n", run.Label, run.Scheme, cfg.Cores)
	fmt.Fprintf(w, "cycles %d   retired %d   IPC %.3f\n\n", run.Res.Cycles, run.Res.Agg.Retired, run.Res.IPC())

	t := stats.NewTable("CPI stack (fraction of cycles)", "class", "fraction")
	total := float64(run.Res.Agg.Total())
	for _, k := range cpu.StallKinds {
		t.AddRow(k.String(), float64(run.Res.Agg.Cycles[k])/total)
	}
	fmt.Fprintln(w, t)

	c := run.Res.Cache
	t2 := stats.NewTable("Memory system", "counter", "value")
	t2.AddRow("demand accesses", c.DemandAccesses)
	t2.AddRow("L1 hits", c.DemandL1Hits)
	t2.AddRow("L2 hits", c.DemandL2Hits)
	t2.AddRow("L3 hits", c.DemandL3Hits)
	t2.AddRow("DRAM accesses", c.DemandMem)
	t2.AddRow("prefetch fills", c.PrefetchFills)
	t2.AddRow("prefetch hits L1/L2/L3", fmt.Sprintf("%d/%d/%d", c.PrefetchL1Hits, c.PrefetchL2Hits, c.PrefetchL3Hits))
	t2.AddRow("prefetch evicted unused", c.PrefetchEvicted)
	t2.AddRow("late merges", run.Res.Sim.LateMerges)
	t2.AddRow("DRAM utilization", fmt.Sprintf("%.1f%%", 100*run.Res.DRAMUtilization))
	t2.AddRow("TLB miss rate", fmt.Sprintf("%.2f%%", 100*run.Res.TLBMissRate))
	t2.AddRow("branches/mispredicts", fmt.Sprintf("%d/%d", run.Res.Branches, run.Res.Mispredicts))
	fmt.Fprintln(w, t2)

	if q := run.Res.PFQAgg; q.Issued > 0 {
		fmt.Fprintf(w, "prefetch quality: accuracy %.1f%%  coverage %.1f%%  timeliness %.1f%%"+
			"  (issued %d  timely %d  late %d  evicted-unused %d  redundant %d  dropped %d)\n\n",
			100*q.Accuracy(), 100*q.Coverage(), 100*q.Timeliness(),
			q.Issued, q.Timely, q.Late, q.EvictedUnused, q.Redundant, q.Dropped)
	}

	for i, s := range run.Res.SchemeStats {
		if ps, ok := s.(core.Stats); ok {
			fmt.Fprintf(w, "core %d prodigy: %+v\n", i, ps)
		}
	}

	eb := exp.EnergyOf(run, cfg.Cores)
	fmt.Fprintf(w, "\nenergy (nJ): core %.0f  cache %.0f  dram %.0f  other %.0f  total %.0f\n",
		eb.Core, eb.Cache, eb.DRAM, eb.Other, eb.Total())
}
