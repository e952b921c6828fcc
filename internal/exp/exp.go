// Package exp is the benchmark harness: one driver per table and figure
// of the paper's evaluation (Section VI). Each driver runs the required
// (workload × prefetcher) matrix on the simulator, reduces the results the
// way the paper does, and renders a paper-style table.
//
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured values.
package exp

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/dig"
	"prodigy/internal/dram"
	"prodigy/internal/energy"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/sim"
	"prodigy/internal/tlb"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// Scheme names a prefetching configuration.
type Scheme string

// The evaluated schemes (Section VI-C).
const (
	SchemeNone     Scheme = "none"
	SchemeStride   Scheme = "stride"
	SchemeGHB      Scheme = "ghb-gdc"
	SchemeIMP      Scheme = "imp"
	SchemeAJ       Scheme = "aj"
	SchemeDroplet  Scheme = "droplet"
	SchemeSoftware Scheme = "software-pf"
	SchemeProdigy  Scheme = "prodigy"
)

// Config parameterizes a harness.
type Config struct {
	// Cores is the simulated core count (Table I: 8).
	Cores int
	// Scale selects dataset sizing.
	Scale graph.Scale
	// Datasets restricts the graph inputs (default: all five).
	Datasets []string
	// PFHREntries overrides Prodigy's PFHR file size (default 16).
	PFHREntries int
	// Verify re-checks workload outputs after every run (slower; on in
	// tests).
	Verify bool
	// CacheOverride replaces the default scaled hierarchy (Quick shrinks
	// the caches along with the tiny datasets so the working-set-to-LLC
	// ratio of DESIGN.md §2 is preserved at test scale).
	CacheOverride *cache.Config
	// Parallelism bounds how many simulations a figure sweep runs
	// concurrently. 0 means GOMAXPROCS; 1 restores fully serial execution.
	// A sweep returns its runs in job order, never completion order, so
	// every figure table is byte-identical at any parallelism (see
	// docs/ARCHITECTURE.md for why runs are independent).
	Parallelism int
	// MaxCycles bounds simulated cycles per run (sim.Config.MaxCycles);
	// 0 keeps the simulator's large default.
	MaxCycles int64
	// RunTimeout aborts any single simulation exceeding this wall-clock
	// budget, converting it into a tagged error exactly like the simulator's
	// MaxCycles guard (the run's goroutine exits cooperatively). 0 disables.
	RunTimeout time.Duration
	// Interrupt, when set, is polled during every simulation ahead of the
	// RunTimeout watchdog: returning a non-empty cause aborts the run with
	// sim.ErrInterrupted and tags its JSONL abort record with that cause
	// (AbortCanceled when a sweep server cancels in-flight cells,
	// AbortShutdown while draining). Return "" to let the run continue.
	Interrupt func() (cause string)
	// Progress, when non-nil, receives one-line sweep progress reports
	// (runs completed/total, ETA, slowest run so far) every
	// ProgressInterval, plus a final summary per sweep.
	Progress io.Writer
	// ProgressInterval is the progress reporting period (default 5s).
	ProgressInterval time.Duration
	// JSONLog, when non-nil, receives one JSON object per line for every
	// simulation executed (cycles, CPI stack, wall time, ...) for
	// machine-readable trend tracking. A sweep writes its lines in grid
	// order, never completion order, so the log is byte-identical at any
	// parallelism apart from wall_ms. Cached replays are not re-emitted.
	// Aborted runs are also logged, tagged with which guard killed them
	// (timeout, max-cycles, deadlock).
	JSONLog io.Writer
	// OnCell, when non-nil, receives two events for every cell a sweep
	// (RunGrid or a figure driver) schedules: one when a worker picks the
	// cell up, just before its simulation (or memo-cache wait) begins, and
	// one when the cell has finished, on every exit path (see CellEvent).
	// The sweep service (internal/exp/farm) learns everything it knows of
	// a live cell from these events. It is called from worker goroutines
	// concurrently and must not block.
	OnCell func(CellEvent)
	// Obs, when non-nil, builds a per-run observability recorder (see
	// internal/obs: trace, metrics, prefetch ledger and latency histogram)
	// keyed by the run's "label.scheme" name (bfs-po.prodigy, the form
	// obs.CellPath puts into file names). The returned close function is
	// called after the run; its error fails the run. Return a nil recorder
	// to skip instrumentation for a cell.
	Obs func(cell string) (*obs.Recorder, func() error, error)
}

// Default returns the paper configuration at benchmark scale.
func Default() Config {
	return Config{Cores: 8, Scale: graph.ScaleSmall, Datasets: graph.DatasetNames()}
}

// Quick returns a reduced configuration for unit tests: tiny datasets,
// fewer cores, verification on, and caches shrunk 8x further so tiny
// working sets still exceed the LLC.
func Quick() Config {
	c := cache.Config{
		LineSize: 64,
		L1Size:   1 << 10, L1Assoc: 4,
		L2Size: 4 << 10, L2Assoc: 8,
		L3Size: 16 << 10, L3Assoc: 16,
		L1Lat: 2, L2Lat: 6, L3Lat: 30,
	}
	return Config{
		Cores: 2, Scale: graph.ScaleTiny,
		Datasets:      []string{"po", "lj"},
		Verify:        true,
		CacheOverride: &c,
	}
}

// Run is one simulation outcome. It holds plain data only: the
// workload, its memory image, the machine and the trace generator live
// for one simulation and are unreachable once it returns, so a memoized
// Run costs its statistics and nothing more.
type Run struct {
	Label  string
	Scheme Scheme
	Res    sim.Result
	// MissesInDIG counts the LLC misses (Res.Cache.DemandMem) that fall
	// in the DIG ranges (Fig. 13/16).
	MissesInDIG uint64
	// Wall is the host wall-clock time the simulation took (progress and
	// JSON reporting; it has no bearing on simulated results).
	Wall time.Duration
}

// Speedup of other relative to this run (this run as baseline).
func (r *Run) Speedup(other *Run) float64 {
	if other.Res.Cycles == 0 {
		return 0
	}
	return float64(r.Res.Cycles) / float64(other.Res.Cycles)
}

// DRAMStallFrac returns the DRAM-stall share of aggregate cycles.
func (r *Run) DRAMStallFrac() float64 {
	total := r.Res.Agg.Total()
	if total == 0 {
		return 0
	}
	return float64(r.Res.Agg.Cycles[cpu.DRAMStall]) / float64(total)
}

// Harness runs and memoizes (workload, scheme) simulations.
type Harness struct {
	Cfg   Config
	mu    sync.Mutex
	cache map[job]*runEntry
	// jsonMu serializes JSONLog writes from concurrent workers.
	jsonMu sync.Mutex
	// errw overrides the stderr destination of internal failure reports
	// (tests capture it; nil means os.Stderr).
	errw io.Writer
	// mshrOverride adjusts the per-core prefetch MSHR cap (tests).
	mshrOverride int
	// built, when set, is handed each simulation's memory image and
	// trace generator just before the run (tests watch their lifetime).
	built func(Cell, *memspace.Space, *trace.Gen)
}

// runEntry memoizes one job. The per-entry Once gives entry
// singleflight semantics: when parallel sweeps (or overlapping figures)
// request the same cell concurrently, exactly one goroutine simulates it
// and the rest block until the result is ready.
type runEntry struct {
	once sync.Once
	run  *Run
	err  error
}

// New builds a harness.
func New(cfg Config) *Harness {
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = graph.DatasetNames()
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = 5 * time.Second
	}
	return &Harness{Cfg: cfg, cache: map[job]*runEntry{}}
}

// runVariant captures non-default machine knobs for ablations.
type runVariant struct {
	pfhr      int
	hubSorted bool
	lookahead int
	numSeqs   int
	noRanged  bool
	singleSeq bool
	fillL2    bool
	cores     int
}

// RunOne simulates one (algo, dataset, scheme) cell with default knobs,
// or returns its memoized run. A call that simulates the cell writes its
// line to Config.JSONLog itself; it sends no OnCell events.
func (h *Harness) RunOne(algo, dataset string, scheme Scheme) (*Run, error) {
	e, _, line := h.entry(h.job(algo, dataset, scheme, runVariant{}))
	h.logLine(line)
	return e.run, e.err
}

// machine is the resolved machine of one job: the core count, Prodigy's
// PFHR file size and the cache hierarchy that simulate builds and CellKey
// hashes, with every harness default applied.
type machine struct {
	cores int
	pfhr  int
	cache cache.Config
}

// machineOf resolves the machine a job with variant v runs on. It is the
// one place harness defaults meet variant knobs: the core count (the
// variant's, else the harness's), the PFHR size (the variant's, else the
// harness's, else core.DefaultConfig's) and the hierarchy (Quick's
// CacheOverride, patched to the core count, else the scaled default).
func (h *Harness) machineOf(v runVariant) machine {
	m := machine{cores: h.Cfg.Cores, pfhr: h.Cfg.PFHREntries}
	if v.cores > 0 {
		m.cores = v.cores
	}
	if v.pfhr > 0 {
		m.pfhr = v.pfhr
	}
	if m.pfhr == 0 {
		m.pfhr = core.DefaultConfig().PFHREntries
	}
	m.cache = cache.ScaledDefault(m.cores)
	if h.Cfg.CacheOverride != nil {
		m.cache = *h.Cfg.CacheOverride
		m.cache.Cores = m.cores
	}
	return m
}

// canonVariant rewrites variant knobs that merely restate the harness
// defaults to their zero values, so e.g. Fig. 12's pfhr=16 sweep point
// and the default Prodigy configuration share one memoized simulation
// (they build byte-identical machines).
func (h *Harness) canonVariant(v runVariant) runVariant {
	def := h.machineOf(runVariant{})
	if v.pfhr == def.pfhr {
		v.pfhr = 0
	}
	if v.cores == def.cores {
		v.cores = 0
	}
	return v
}

// entry returns the memo entry for one job, simulating it on first
// request. It is safe for concurrent use: concurrent requests for the
// same job share a single simulation, and a panicking simulation is
// converted into a tagged error instead of killing the sweep. The call
// that simulates the job also gets the run's JSONL record (simulate's
// sum and line), which it passes on to Config.JSONLog; every other call
// gets nil for both.
func (h *Harness) entry(j job) (e *runEntry, sum *RunSummary, line []byte) {
	h.mu.Lock()
	e, ok := h.cache[j]
	if !ok {
		e = &runEntry{}
		h.cache[j] = e
	}
	h.mu.Unlock()

	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.run, sum, line = nil, nil, nil
				e.err = fmt.Errorf("exp: %s: panic: %v\n%s", j.Cell, p, debug.Stack())
			}
		}()
		e.run, sum, line, e.err = h.simulate(j)
	})
	return e, sum, line
}

// simulate executes one job (no memoization; called once per job
// through entry's singleflight). Every error it returns names the cell
// once, as "exp: label/scheme: ...". Besides the run it returns the
// JSONL record of the run, if any (see encodeJSON).
func (h *Harness) simulate(j job) (*Run, *RunSummary, []byte, error) {
	c, v := j.Cell, j.v
	label, scheme := c.Label(), c.Scheme
	start := time.Now() //lint:allow determinism Run.Wall reports host time; simulated cycles never read it
	m := h.machineOf(v)
	opts := workloads.Options{
		Scale:            h.Cfg.Scale,
		HubSorted:        v.hubSorted,
		SoftwarePrefetch: scheme == SchemeSoftware,
	}
	w, err := workloads.Build(c.Algo, c.Dataset, m.cores, opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: %s: %w", c, err)
	}

	proCfg := core.Config{
		PFHREntries:    m.pfhr,
		DisableRanged:  v.noRanged,
		SingleSequence: v.singleSeq,
	}
	d := w.DIG
	if v.lookahead > 0 || v.numSeqs > 0 {
		d = overrideTrigger(d, v.lookahead, v.numSeqs)
	}

	var fac prefetch.Factory
	switch scheme {
	case SchemeNone, SchemeSoftware:
		fac = nil
	case SchemeStride:
		fac = prefetch.Stride(prefetch.DefaultStrideConfig())
	case SchemeGHB:
		fac = prefetch.GHB(prefetch.DefaultGHBConfig())
	case SchemeIMP:
		fac = prefetch.IMP(prefetch.DefaultIMPConfig())
	case SchemeAJ:
		// A&J reuses the DIG-walking machinery restricted to its design
		// point: BFS-shaped chain, one sequence, no dropping.
		fac = prefetch.AJ(d, func(chain *dig.DIG) prefetch.Factory {
			return core.New(chain, core.Config{PFHREntries: m.pfhr, SingleSequence: true})
		})
	case SchemeDroplet:
		fac = prefetch.Droplet(d, prefetch.DefaultDropletConfig())
	case SchemeProdigy:
		fac = core.New(d, proCfg)
	default:
		return nil, nil, nil, fmt.Errorf("exp: %s: unknown scheme %q", c, scheme)
	}

	scfg := sim.Config{
		Cores:          m.cores,
		CPU:            cpu.DefaultConfig(),
		Cache:          m.cache,
		DRAM:           dram.Default(),
		TLB:            tlb.Default(),
		Prefetcher:     fac,
		PrefetchFillL2: v.fillL2,
		PrefetchMSHRs:  h.mshrOverride,
		MaxCycles:      h.Cfg.MaxCycles,
	}
	// Interrupt sources are cause-tagged: whichever source trips first
	// records why the run died, so the abort JSONL distinguishes a
	// wall-clock timeout from a server-side cancel or shutdown. External
	// interrupts (Config.Interrupt) are polled ahead of the watchdog — a
	// cell canceled after its timeout expired but before the next poll is
	// still reported canceled.
	var interruptCause string
	var interrupts []func() string
	if h.Cfg.Interrupt != nil {
		interrupts = append(interrupts, h.Cfg.Interrupt)
	}
	if h.Cfg.RunTimeout > 0 {
		// Wall-clock guard with MaxCycles semantics: a timer flips an atomic
		// flag, the simulator polls it and aborts with an error, and the
		// sweep reports the run as failed instead of hanging on it. The
		// deadline is also checked directly so timeouts shorter than timer
		// resolution still fire deterministically.
		deadline := start.Add(h.Cfg.RunTimeout)
		var expired atomic.Bool
		//lint:allow determinism timeout watchdog; an expired run is reported failed, never mixed into results
		timer := time.AfterFunc(h.Cfg.RunTimeout, func() { expired.Store(true) })
		defer timer.Stop()
		interrupts = append(interrupts, func() string {
			if expired.Load() || time.Now().After(deadline) { //lint:allow determinism timeout watchdog; see above
				return AbortTimeout
			}
			return ""
		})
	}
	if len(interrupts) > 0 {
		scfg.Interrupt = func() bool {
			for _, poll := range interrupts {
				if cause := poll(); cause != "" {
					interruptCause = cause
					return true
				}
			}
			return false
		}
	}
	run := &Run{Label: label, Scheme: scheme}
	scfg.MissHook = func(addr uint64) {
		if w.DIG.Covers(addr) {
			run.MissesInDIG++
		}
	}

	closeObs := func() error { return nil }
	if h.Cfg.Obs != nil {
		rec, closer, oerr := h.Cfg.Obs(label + "." + string(scheme))
		if oerr != nil {
			return nil, nil, nil, fmt.Errorf("exp: %s: observability setup: %w", c, oerr)
		}
		scfg.Obs = rec
		if closer != nil {
			closeObs = closer
		}
	}

	gen := trace.NewGen(m.cores, 0)
	if h.built != nil {
		h.built(c, w.Space, gen)
	}
	res, err := sim.Run(scfg, w.Space, gen, w.Run)
	cerr := closeObs()
	if err != nil {
		err = fmt.Errorf("exp: %s: %w", c, err)
		if cerr != nil {
			err = errors.Join(err, fmt.Errorf("exp: %s: observability export: %w", c, cerr))
		}
		//lint:allow determinism aborted-run wall time feeds the JSONL record, not results
		sum, line := h.emitAbort(label, scheme, v, err, interruptCause, res, time.Since(start))
		return nil, sum, line, err
	}
	if cerr != nil {
		return nil, nil, nil, fmt.Errorf("exp: %s: observability export: %w", c, cerr)
	}
	if h.Cfg.Verify {
		if err := w.Verify(); err != nil {
			return nil, nil, nil, fmt.Errorf("exp: %s: %w", c, err)
		}
	}
	run.Res = res
	run.Wall = time.Since(start) //lint:allow determinism Run.Wall reports host time; simulated cycles never read it
	sum, line := h.encodeJSON(summarize(run, v))
	return run, sum, line, nil
}

// overrideTrigger clones a DIG with pinned look-ahead / sequence-count
// trigger parameters (the look-ahead ablation).
func overrideTrigger(d *dig.DIG, lookahead, numSeqs int) *dig.DIG {
	out := *d
	out.TriggerCfg = map[dig.NodeID]dig.TriggerConfig{}
	for id := range d.TriggerCfg {
		cfg := d.TriggerCfg[id]
		if lookahead > 0 {
			cfg.Lookahead = lookahead
		}
		if numSeqs > 0 {
			cfg.NumSeqs = numSeqs
		}
		out.TriggerCfg[id] = cfg
	}
	for _, id := range d.TriggerNodes() {
		if _, ok := out.TriggerCfg[id]; !ok {
			out.TriggerCfg[id] = dig.TriggerConfig{Lookahead: lookahead, NumSeqs: numSeqs}
		}
	}
	return &out
}

// EnergyOf evaluates the Fig. 19 model on a run.
func EnergyOf(r *Run, cores int) energy.Breakdown {
	c := energy.Counts{
		Cycles:       r.Res.Cycles,
		Cores:        cores,
		Retired:      r.Res.Agg.Retired,
		L1Accesses:   r.Res.Cache.DemandAccesses + r.Res.Cache.PrefetchFills,
		L2Accesses:   r.Res.Cache.DemandL2Hits + r.Res.Cache.DemandL3Hits + r.Res.Cache.DemandMem,
		L3Accesses:   r.Res.Cache.DemandL3Hits + r.Res.Cache.DemandMem + r.Res.Sim.PrefetchIssued,
		DRAMAccesses: r.Res.DRAM.Requests + r.Res.DRAM.Writes,
	}
	return energy.Compute(energy.Default(), c)
}

// GraphCells enumerates the (algo, dataset) cells for the configured
// datasets: graph algorithms cross datasets, non-graph algorithms appear
// once.
func (h *Harness) GraphCells(includeOthers bool) []struct{ Algo, Dataset string } {
	var out []struct{ Algo, Dataset string }
	for _, a := range workloads.GraphAlgos {
		for _, d := range h.Cfg.Datasets {
			out = append(out, struct{ Algo, Dataset string }{a, d})
		}
	}
	if includeOthers {
		for _, a := range workloads.OtherAlgos {
			out = append(out, struct{ Algo, Dataset string }{a, ""})
		}
	}
	return out
}

// datasetsFor returns the datasets to use for an algorithm (one empty
// entry for non-graph kernels).
func (h *Harness) datasetsFor(algo string) []string {
	if workloads.IsGraphAlgo(algo) {
		return h.Cfg.Datasets
	}
	return []string{""}
}
