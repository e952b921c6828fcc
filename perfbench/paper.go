package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/dram"
	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/prefetch"
	"prodigy/internal/sim"
	"prodigy/internal/tlb"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// The paper-* workloads: the five GAP kernels on the po and lj datasets
// through exp.New(cfg).RunGrid, serially, with Verify on — the path
// prodigy-bench takes — at benchmark scale (8 cores, graph.ScaleSmall,
// cache.ScaledDefault) or, for the self-test, at exp.Quick scale.
var (
	paperAlgos    = []string{"bfs", "pr", "cc", "sssp", "bc"}
	paperDatasets = []string{"po", "lj"}
)

// expectedJSON records every paper cell's (cycles, retired) at both
// scales, as produced by `perfbench -record`. A cell whose simulation
// disagrees is counted as failed.
//
//go:embed expected.json
var expectedJSON []byte

// cellCounts is one cell's recorded simulated outcome.
type cellCounts struct {
	Cycles  int64 `json:"cycles"`
	Retired int64 `json:"retired"`
}

// expectation maps "label/scheme" to the recorded counts.
type expectation map[string]cellCounts

func loadExpected(tiny bool) (expectation, error) {
	var all map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[scaleName(tiny)], nil
}

func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "small"
}

func cellKey(c exp.Cell) string { return c.Algo + "-" + c.Dataset + "/" + string(c.Scheme) }

// paperConfig is the harness configuration of both paper workloads.
func paperConfig(tiny bool) exp.Config {
	cfg := exp.Default()
	if tiny {
		cfg = exp.Quick()
	}
	cfg.Datasets = paperDatasets
	cfg.Parallelism = 1
	cfg.Verify = true
	return cfg
}

func paperScheme(workload string) exp.Scheme {
	if workload == "paper-prodigy" {
		return exp.SchemeProdigy
	}
	return exp.SchemeNone
}

// paperCells returns the grid in grid order.
func paperCells(scheme exp.Scheme) []exp.Cell {
	var cells []exp.Cell
	for _, a := range paperAlgos {
		for _, d := range paperDatasets {
			cells = append(cells, exp.Cell{Algo: a, Dataset: d, Scheme: scheme})
		}
	}
	return cells
}

// loadPaperGraphs generates every dataset variant the paper cells read
// (bfs/cc/bc: undirected; sssp: weighted; pr: CSC) and returns the time
// taken. The graph package memoizes per process, so this times real
// generation only once per process.
func loadPaperGraphs(tiny bool) time.Duration {
	scale := graph.ScaleSmall
	if tiny {
		scale = graph.ScaleTiny
	}
	start := time.Now()
	for _, d := range paperDatasets {
		graph.LoadUndirected(d, scale)
		graph.LoadWeighted(d, scale)
		graph.LoadWithCSC(d, scale)
	}
	return time.Since(start)
}

// gridPass is one timed RunGrid over the shuffled cells.
type gridPass struct {
	wall     time.Duration
	runs     []*exp.Run // nil entries for failed cells
	retired  int64
	cycles   int64
	failures int
}

// runGridPass simulates cells on a fresh harness and checks every cell
// against the recorded counts. A failing cell (error, abort, Verify
// failure, or mismatched counts) is counted, never fatal.
func runGridPass(cfg exp.Config, cells []exp.Cell, want expectation) gridPass {
	h := exp.New(cfg)
	start := time.Now()
	runs, err := h.RunGrid(cells)
	p := gridPass{wall: time.Since(start), runs: make([]*exp.Run, len(cells))}
	for i, c := range cells {
		r := (*exp.Run)(nil)
		if err == nil {
			r = runs[i]
		} else if rr, cerr := h.RunOne(c.Algo, c.Dataset, c.Scheme); cerr == nil {
			r = rr // memoized: RunGrid already simulated it
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cellKey(c), cerr)
		}
		if r == nil || !matches(c, r.Res, want) {
			p.failures++
			continue
		}
		p.runs[i] = r
		p.retired += r.Res.Agg.Retired
		p.cycles += r.Res.Cycles
	}
	return p
}

// matches reports whether a cell's simulated counts equal the record.
func matches(c exp.Cell, res sim.Result, want expectation) bool {
	w, ok := want[cellKey(c)]
	got := cellCounts{Cycles: res.Cycles, Retired: res.Agg.Retired}
	if !ok || got != w {
		fmt.Fprintf(os.Stderr, "perfbench: %s: got %+v, recorded %+v\n", cellKey(c), got, w)
		return false
	}
	return true
}

// runPaper runs paper-none or paper-prodigy.
func runPaper(o opts) (map[string]float64, tally, error) {
	want, err := loadExpected(o.tiny)
	if err != nil {
		return nil, tally{}, err
	}
	cfg := paperConfig(o.tiny)
	cells := paperCells(paperScheme(o.workload))
	rng := rand.New(rand.NewPCG(o.seed, 0x9e3779b97f4a7c15))
	shuffled := func() []exp.Cell {
		c := slices.Clone(cells)
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		return c
	}
	if o.trace {
		return tracePaper(o, cfg, shuffled(), want)
	}

	// Set-up: dataset generation, four times in fresh processes and once
	// here (which the measured passes then reuse); report the median.
	setups, err := setupSamples(4, o.tiny)
	if err != nil {
		return nil, tally{}, err
	}
	setups = append(setups, loadPaperGraphs(o.tiny).Seconds())

	// Measured phase: whole grid passes until the time budget is spent,
	// so every run simulates the same cell mix.
	var (
		t             tally
		passes        []float64
		retired, wall float64
		cycles        int64
	)
	start := time.Now()
	for len(passes) == 0 || since(start) < o.seconds {
		runtime.GC() // start each pass from the same heap state
		p := runGridPass(cfg, shuffled(), want)
		t.attempted += len(cells)
		t.failed += p.failures
		passes = append(passes, p.wall.Seconds()*1e3)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s\n", len(passes), p.wall.Seconds())
		retired += float64(p.retired)
		wall += p.wall.Seconds()
		cycles = p.cycles
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, t, err
	}
	return map[string]float64{
		"setup_s":         median(setups),
		"sim_minst_per_s": retired / wall / 1e6,
		"sim_cycles":      float64(cycles),
		"op_per_s":        float64(len(passes)) / wall,
		"op_p50_ms":       median(passes),
		"op_p90_ms":       quantile(passes, 0.9),
		"peak_rss_mib":    rss,
	}, t, nil
}

// tracePaper is the traced run: the per-layer spans, the CPU-profile
// layer shares and the simulated counters. With the cells in seed order:
//
//  1. untraced: one RunGrid pass on a fresh harness (the end-to-end path);
//  2. traced, per cell, under the CPU profiler: RunGrid on a fresh
//     harness, then the same cell through the public layer calls the
//     harness makes internally — workloads.Build, sim.Run, Verify — each
//     timed;
//  3. trace-only, per cell: a second workloads.Build whose instruction
//     streams are drained without a machine (trace.drain_s).
//
// sim.engine_self_s = sim.run_s − trace.drain_s and exp.harness_self_s
// = traced RunGrid wall − (build + sim.Run + verify) of the replayed
// cells. bench.trace_overhead is the traced RunGrid wall over the
// untraced one.
func tracePaper(o opts, cfg exp.Config, cells []exp.Cell, want expectation) (map[string]float64, tally, error) {
	var t tally
	m := zeroLayer()
	m["graph.load_s"] = loadPaperGraphs(o.tiny).Seconds()

	// 1. Untraced pass: simulated counters and the baseline wall.
	base := runGridPass(cfg, cells, want)
	t.attempted += len(cells)
	t.failed += base.failures
	simCounters(m, base.runs)

	// 2. Traced pass.
	profPath := filepath.Join(o.work, "paper.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, t, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, t, errors.Join(err, pf.Close())
	}
	var gridWall, build, simRun, verify time.Duration
	for _, c := range cells {
		// Both timed calls start from a collected heap returned to the OS,
		// so neither reuses the pages the other just faulted in.
		debug.FreeOSMemory()
		p := runGridPass(cfg, []exp.Cell{c}, want)
		gridWall += p.wall
		t.check(p.failures == 0)

		debug.FreeOSMemory()
		res, d, err := replayCell(cfg, c)
		build += d[0]
		simRun += d[1]
		verify += d[2]
		// The replayed cell must match the record, as the untraced run did.
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replaying %s: %v\n", cellKey(c), err)
		}
		t.check(err == nil && matches(c, res, want))
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, t, err
	}
	shares, err := hostShares(profPath)
	if err != nil {
		return nil, t, err
	}
	maps.Copy(m, shares)

	// 3. Trace-only pass.
	var drain time.Duration
	var entries, retired int64
	for _, c := range cells {
		n, d, err := drainCell(cfg, c)
		t.check(err == nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: draining %s: %v\n", cellKey(c), err)
		}
		drain += d
		entries += n
		retired += want[cellKey(c)].Retired
	}

	m["workloads.build_s"] = build.Seconds()
	m["workloads.verify_s"] = verify.Seconds()
	m["sim.run_s"] = simRun.Seconds()
	m["trace.drain_s"] = drain.Seconds()
	m["sim.engine_self_s"] = (simRun - drain).Seconds()
	m["trace.minst_per_s"] = float64(retired) / drain.Seconds() / 1e6
	m["trace.entries_per_inst"] = float64(entries) / float64(max(retired, 1))
	m["exp.harness_self_s"] = (gridWall - build - simRun - verify).Seconds()
	m["bench.trace_overhead"] = gridWall.Seconds() / base.wall.Seconds()
	return m, t, nil
}

// buildCell constructs a cell's workload the way exp's harness does.
func buildCell(cfg exp.Config, c exp.Cell) (*workloads.Workload, error) {
	return workloads.Build(c.Algo, c.Dataset, cfg.Cores, workloads.Options{Scale: cfg.Scale})
}

// replayCell simulates one cell through the public layer calls the
// harness makes for it, returning the result and the build, sim.Run and
// Verify durations. The machine must match exp's for the cell, which the
// recorded counts check.
func replayCell(cfg exp.Config, c exp.Cell) (sim.Result, [3]time.Duration, error) {
	var d [3]time.Duration
	t0 := time.Now()
	w, err := buildCell(cfg, c)
	d[0] = time.Since(t0)
	if err != nil {
		return sim.Result{}, d, err
	}
	var fac prefetch.Factory
	if c.Scheme == exp.SchemeProdigy {
		fac = core.New(w.DIG, core.Config{PFHREntries: cfg.PFHREntries})
	}
	ccfg := cache.ScaledDefault(cfg.Cores)
	if cfg.CacheOverride != nil {
		ccfg = *cfg.CacheOverride
		ccfg.Cores = cfg.Cores
	}
	scfg := sim.Config{
		Cores:      cfg.Cores,
		CPU:        cpu.DefaultConfig(),
		Cache:      ccfg,
		DRAM:       dram.Default(),
		TLB:        tlb.Default(),
		Prefetcher: fac,
		MaxCycles:  cfg.MaxCycles,
	}
	t1 := time.Now()
	res, err := sim.Run(scfg, w.Space, trace.NewGen(cfg.Cores, 1), w.Run)
	d[1] = time.Since(t1)
	if err != nil {
		return res, d, err
	}
	t2 := time.Now()
	err = w.Verify()
	d[2] = time.Since(t2)
	return res, d, err
}

// drainCell builds a cell's workload and consumes its instruction
// streams with no machine attached: an asynchronous generator whose
// per-core readers are drained round-robin up to each Barrier, the
// epoch order the simulator consumes them in. It returns the entries
// read and the drain time (producer and consumer together).
func drainCell(cfg exp.Config, c exp.Cell) (int64, time.Duration, error) {
	w, err := buildCell(cfg, c)
	if err != nil {
		return 0, 0, err
	}
	gen := trace.NewGen(cfg.Cores, 1)
	start := time.Now()
	wait := gen.Run(w.Run)
	var n int64
	for open := cfg.Cores; open > 0; {
		open = 0
		for core := range cfg.Cores {
			r := gen.Reader(core)
			for r.Next() {
				n++
				if r.In.Kind == trace.Barrier {
					open++
					break
				}
			}
		}
	}
	err = wait()
	return n, time.Since(start), err
}

// simCounters reduces the untraced pass's sim.Results to the per-layer
// simulated counters (counts per 1k retired instructions, ratios over
// the summed counts). Cells that failed are left out.
func simCounters(m map[string]float64, runs []*exp.Run) {
	var (
		cycles, retired, tlbW, dramW float64
		stack                        cpu.CPIStack
		cs                           cache.Stats
		ds                           dram.Stats
		ss                           sim.Stats
		q                            sim.PrefetchQuality
	)
	for _, r := range runs {
		if r == nil {
			continue
		}
		res := r.Res
		cycles += float64(res.Cycles)
		retired += float64(res.Agg.Retired)
		stack.Add(res.Agg)
		c := res.Cache
		cs.DemandAccesses += c.DemandAccesses
		cs.DemandL1Hits += c.DemandL1Hits
		cs.DemandL2Hits += c.DemandL2Hits
		cs.DemandL3Hits += c.DemandL3Hits
		cs.DemandMem += c.DemandMem
		cs.Writebacks += c.Writebacks
		ds.Requests += res.DRAM.Requests
		ds.TotalQueueDelay += res.DRAM.TotalQueueDelay
		ss.PrefetchMSHRFull += res.Sim.PrefetchMSHRFull
		tlbW += res.TLBMissRate * float64(res.Agg.Retired)
		dramW += res.DRAMUtilization * float64(res.Cycles)
		q.Add(res.PFQAgg)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	kinst := retired / 1e3
	total := float64(stack.Total())
	l2Seen := float64(cs.DemandAccesses - cs.DemandL1Hits)
	l3Seen := l2Seen - float64(cs.DemandL2Hits)
	m["cpu.ipc"] = ratio(retired, cycles)
	m["cpu.cpi_dram_frac"] = ratio(float64(stack.Cycles[cpu.DRAMStall]), total)
	m["cpu.cpi_cache_frac"] = ratio(float64(stack.Cycles[cpu.CacheStall]), total)
	m["cpu.cpi_branch_frac"] = ratio(float64(stack.Cycles[cpu.BranchStall]), total)
	m["cache.l1_hit_rate"] = ratio(float64(cs.DemandL1Hits), float64(cs.DemandAccesses))
	m["cache.l2_hit_rate"] = ratio(float64(cs.DemandL2Hits), l2Seen)
	m["cache.l3_hit_rate"] = ratio(float64(cs.DemandL3Hits), l3Seen)
	m["cache.mem_per_kinst"] = ratio(float64(cs.DemandMem), kinst)
	m["cache.writebacks_per_kinst"] = ratio(float64(cs.Writebacks), kinst)
	m["tlb.miss_rate"] = ratio(tlbW, retired)
	m["dram.requests_per_kinst"] = ratio(float64(ds.Requests), kinst)
	m["dram.util"] = ratio(dramW, cycles)
	m["dram.queue_delay_per_req"] = ratio(float64(ds.TotalQueueDelay), float64(ds.Requests))
	m["pf.issued_per_kinst"] = ratio(float64(q.Issued), kinst)
	m["pf.redundant_per_kinst"] = ratio(float64(q.Redundant), kinst)
	m["pf.dropped_per_kinst"] = ratio(float64(q.Dropped), kinst)
	m["pf.mshr_full_per_kinst"] = ratio(float64(ss.PrefetchMSHRFull), kinst)
	m["pf.accuracy"] = q.Accuracy()
	m["pf.coverage"] = q.Coverage()
	m["pf.timeliness"] = q.Timeliness()
}

// recordExpected simulates both paper grids at both scales and writes
// the {"<scale>": {"label/scheme": {cycles, retired}}} table that
// expected.json holds. Run it only when a change is meant to move
// simulated timing.
func recordExpected(w io.Writer) error {
	all := map[string]expectation{}
	for _, tiny := range []bool{false, true} {
		cfg := paperConfig(tiny)
		out := expectation{}
		for _, s := range []exp.Scheme{exp.SchemeNone, exp.SchemeProdigy} {
			cells := paperCells(s)
			runs, err := exp.New(cfg).RunGrid(cells)
			if err != nil {
				return err
			}
			for i, c := range cells {
				out[cellKey(c)] = cellCounts{Cycles: runs[i].Res.Cycles, Retired: runs[i].Res.Agg.Retired}
			}
		}
		all[scaleName(tiny)] = out
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
