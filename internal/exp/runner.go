package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"prodigy/internal/cpu"
	"prodigy/internal/sim"
	"prodigy/internal/stats"
	"prodigy/internal/workloads"
)

// This file is the parallel experiment runner. A figure driver lists the
// simulations it needs as jobs, in one loop, and hands them to
// Harness.sweep, which fans the distinct jobs out across a bounded worker
// pool into the memoization cache and returns their runs indexed exactly
// like the jobs. The driver then reduces over that slice in the order it
// listed the jobs, never completion order, so tables and geomeans are
// byte-identical to serial execution. docs/ARCHITECTURE.md explains why
// the runs are independent; TestParallelMatchesSerialGolden enforces the
// guarantee.

// job names one simulation a sweep schedules: a grid cell with its
// machine knobs. Jobs are built by Harness.job, whose canonical variant
// makes two jobs equal exactly when they build the same machine, so a
// job is also the cell's memoization key.
type job struct {
	Cell
	v runVariant
}

// job returns the canonical job for one cell under variant v.
func (h *Harness) job(algo, dataset string, scheme Scheme, v runVariant) job {
	return job{Cell{algo, dataset, scheme}, h.canonVariant(v)}
}

// parallelism resolves the configured worker count.
func (h *Harness) parallelism() int {
	if h.Cfg.Parallelism > 0 {
		return h.Cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// sweep simulates every job, fanning the distinct ones out across up to
// Config.Parallelism workers, and returns their runs indexed exactly like
// jobs; duplicate jobs (figures frequently share baseline cells) run
// once and share one *Run. Each distinct job sends Config.OnCell one
// start and one done event, whatever its outcome, and Config.JSONLog gets
// the lines of the jobs it simulated in job order. Workers never die with
// the sweep: a panicking or timed-out simulation surfaces as a tagged
// error for its cell while every other job still completes. On failure
// sweep returns nil runs and the cells' errors joined in sorted order.
func (h *Harness) sweep(jobs []job) ([]*Run, error) {
	// distinct holds each job once, in first-occurrence order; first maps
	// a job to its index there.
	var distinct []job
	first := make(map[job]int, len(jobs))
	for _, j := range jobs {
		if _, ok := first[j]; !ok {
			first[j] = len(distinct)
			distinct = append(distinct, j)
		}
	}
	if len(distinct) == 0 {
		return []*Run{}, nil
	}
	workers := min(h.parallelism(), len(distinct))

	meter := stats.NewMeter(len(distinct))
	stopProgress := h.startProgress(meter)
	defer stopProgress()

	type result struct {
		k    int
		e    *runEntry
		line []byte
	}
	resc := make(chan result, len(distinct))
	jobc := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for k := range jobc {
				j := distinct[k]
				if h.Cfg.OnCell != nil {
					h.Cfg.OnCell(CellEvent{Cell: j.Cell})
				}
				start := time.Now() //lint:allow determinism host wall time feeds the progress meter, not results
				e, sum, line := h.entry(j)
				//lint:allow determinism host wall time feeds the progress meter, not results
				meter.Done(j.String(), time.Since(start))
				if h.Cfg.OnCell != nil {
					h.Cfg.OnCell(CellEvent{Cell: j.Cell, Done: true, Summary: sum, Line: line, Err: e.err})
				}
				resc <- result{k, e, line}
			}
		}()
	}
	go func() {
		for k := range distinct {
			jobc <- k
		}
		close(jobc)
	}()

	// Config.JSONLog receives the lines in job order, whatever order the
	// workers finish in: a finished job's line waits in lines until every
	// earlier job has reported.
	entries := make([]*runEntry, len(distinct))
	lines := make([][]byte, len(distinct))
	next := 0
	var errs []error
	for range distinct {
		r := <-resc
		if r.e.err != nil {
			errs = append(errs, r.e.err)
		}
		entries[r.k], lines[r.k] = r.e, r.line
		for ; next < len(distinct) && entries[next] != nil; next++ {
			h.logLine(lines[next])
			lines[next] = nil
		}
	}
	if len(errs) > 0 {
		// Joined in deterministic order so the same failures always render
		// the same message regardless of which worker hit them first.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return nil, errors.Join(errs...)
	}
	runs := make([]*Run, len(jobs))
	for i, j := range jobs {
		runs[i] = entries[first[j]].run
	}
	return runs, nil
}

// Cell names one (algorithm, dataset, scheme) grid cell with default
// machine knobs, the unit of work RunGrid schedules.
type Cell struct {
	// Algo is the algorithm name; Dataset is empty for non-graph kernels.
	Algo, Dataset string
	// Scheme is the prefetching configuration.
	Scheme Scheme
}

// Label is the cell's workload label (workloads.Label), as its
// RunSummary carries it.
func (c Cell) Label() string { return workloads.Label(c.Algo, c.Dataset) }

// String names the cell as "label/scheme" (bfs-po/none), the one
// spelling harness errors and progress reports use.
func (c Cell) String() string { return c.Label() + "/" + string(c.Scheme) }

// CellEvent reports a sweep cell's progress to Config.OnCell. A start
// event carries only the cell; the done event also carries its outcome.
type CellEvent struct {
	// Cell is the grid cell (ablation variants report their base cell).
	Cell Cell
	// Done is false when a worker picks the cell up and true once the
	// cell has finished: completed, aborted by a guard, failed before
	// simulating, or panicked.
	Done bool
	// Summary is the cell's JSONL record and Line its exact encoded
	// bytes, without the newline: the line Config.JSONLog receives. Both
	// are nil when the cell wrote no record (it failed before simulating
	// or panicked) and when this job did not simulate it: a cell another
	// job or sweep of the harness already ran reports only its memoized
	// error, its record having gone out with that job's event. Line alone
	// is nil when the record could not be encoded.
	Summary *RunSummary
	Line    []byte
	// Err is the cell's error; nil when it completed.
	Err error
}

// RunGrid simulates every cell, fanned out across Config.Parallelism
// workers, and returns results indexed exactly like cells — grid order,
// never completion order — so output is deterministic at any parallelism.
func (h *Harness) RunGrid(cells []Cell) ([]*Run, error) {
	jobs := make([]job, len(cells))
	for i, c := range cells {
		jobs[i] = h.job(c.Algo, c.Dataset, c.Scheme, runVariant{})
	}
	return h.sweep(jobs)
}

// startProgress launches the interval reporter for one sweep when
// Config.Progress is set. The returned stop function emits the final
// summary line.
func (h *Harness) startProgress(meter *stats.Meter) (stop func()) {
	w := h.Cfg.Progress
	if w == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(h.Cfg.ProgressInterval) //lint:allow determinism progress-report cadence only; output goes to the status writer
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintf(w, "exp: %s\n", meter.Snapshot())
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		s := meter.Snapshot()
		fmt.Fprintf(w, "exp: sweep finished: %s\n", s)
	}
}

// RunSummary is the machine-readable per-run record emitted to
// Config.JSONLog, one JSON object per line.
type RunSummary struct {
	// Label is "algo-dataset" (or the algorithm alone) and Scheme the
	// prefetching configuration.
	Label  string `json:"label"`
	Scheme string `json:"scheme"`
	// Variant carries non-default machine knobs (ablations); omitted for
	// default-knob runs.
	Variant string `json:"variant,omitempty"`
	// Cycles, Retired, and IPC summarize simulated performance.
	Cycles  int64   `json:"cycles"`
	Retired int64   `json:"retired"`
	IPC     float64 `json:"ipc"`
	// CPIStack maps stall-class names to their fraction of total cycles.
	CPIStack map[string]float64 `json:"cpi_stack"`
	// DRAMUtilization is the controller-pipe busy fraction.
	DRAMUtilization float64 `json:"dram_util"`
	// WallMS is host wall-clock milliseconds the simulation took.
	WallMS float64 `json:"wall_ms"`
	// Abort names the guard that killed an unsuccessful run ("timeout",
	// "max-cycles", "deadlock", or "error"); empty for completed runs.
	Abort string `json:"abort,omitempty"`
	// Error carries the failure message for aborted runs.
	Error string `json:"error,omitempty"`
	// RetiredPerCore records each core's progress at the abort point, so a
	// timed-out sweep cell still shows how far it got (and whether one
	// straggler core was the problem). Omitted for completed runs, whose
	// aggregate is in Retired.
	RetiredPerCore []int64 `json:"retired_per_core,omitempty"`
	// PF summarizes prefetch-lifecycle quality (accuracy, coverage,
	// timeliness and the raw lifecycle counts behind them); omitted when
	// the run issued no prefetches.
	PF *PFSummary `json:"pf,omitempty"`
}

// PFSummary is the prefetch-quality block of a RunSummary: the aggregate
// lifecycle counts across cores plus the derived ratios (see
// sim.PrefetchQuality for the definitions).
type PFSummary struct {
	Issued        uint64  `json:"issued"`
	Fills         uint64  `json:"fills"`
	Timely        uint64  `json:"timely"`
	Late          uint64  `json:"late"`
	EvictedUnused uint64  `json:"evicted_unused"`
	Redundant     uint64  `json:"redundant"`
	Dropped       uint64  `json:"dropped"`
	Accuracy      float64 `json:"accuracy"`
	Coverage      float64 `json:"coverage"`
	Timeliness    float64 `json:"timeliness"`
}

// pfSummaryOf reduces a result's aggregate prefetch quality to the JSONL
// block, or nil when the run issued no prefetches (baseline schemes).
func pfSummaryOf(res sim.Result) *PFSummary {
	q := res.PFQAgg
	if q.Issued == 0 {
		return nil
	}
	return &PFSummary{
		Issued:        q.Issued,
		Fills:         q.Fills,
		Timely:        q.Timely,
		Late:          q.Late,
		EvictedUnused: q.EvictedUnused,
		Redundant:     q.Redundant,
		Dropped:       q.Dropped,
		Accuracy:      q.Accuracy(),
		Coverage:      q.Coverage(),
		Timeliness:    q.Timeliness(),
	}
}

// Abort-cause tags recorded in RunSummary.Abort. The first three are
// interrupt causes: the RunTimeout watchdog reports AbortTimeout, and
// external interrupt sources (Config.Interrupt — e.g. the sweep service
// in internal/exp/farm) report AbortCanceled for a client cancellation
// and AbortShutdown for a server drain.
const (
	AbortTimeout   = "timeout"
	AbortCanceled  = "canceled"
	AbortShutdown  = "shutdown"
	AbortMaxCycles = "max-cycles"
	AbortDeadlock  = "deadlock"
	AbortError     = "error"
)

// abortKind classifies a simulation failure for the JSONL record. The
// typed sentinels from internal/sim survive the exp error wrapping, so a
// sweep log distinguishes a wall-clock timeout from a runaway simulation
// hitting MaxCycles or a scheduler deadlock. An interrupted run carries
// the cause recorded by whichever interrupt source tripped (timeout
// watchdog vs an external canceler), so a server-canceled cell is tagged
// "canceled", never misreported as "timeout".
func abortKind(err error, cause string) string {
	switch {
	case errors.Is(err, sim.ErrInterrupted):
		if cause != "" {
			return cause
		}
		// Every interrupt source exp installs records a cause; this is
		// reachable only if sim.Config.Interrupt tripped behind exp's back.
		return "interrupted"
	case errors.Is(err, sim.ErrMaxCycles):
		return AbortMaxCycles
	case errors.Is(err, sim.ErrDeadlock):
		return AbortDeadlock
	default:
		return AbortError
	}
}

// summarize builds the JSON record for a completed run.
func summarize(r *Run, v runVariant) RunSummary {
	return summaryOf(r.Label, r.Scheme, v, r.Res, r.Wall)
}

// summaryOf builds the JSON record of a run from its result, complete or
// partial; the abort path adds its cause. CPIStack is always the
// (possibly empty) map: aborted and completed records share one schema
// ("cpi_stack":{} when there is nothing to attribute, never null).
func summaryOf(label string, scheme Scheme, v runVariant, res sim.Result, wall time.Duration) RunSummary {
	s := RunSummary{
		Label:           label,
		Scheme:          string(scheme),
		Cycles:          res.Cycles,
		Retired:         res.Agg.Retired,
		IPC:             res.IPC(),
		DRAMUtilization: res.DRAMUtilization,
		WallMS:          float64(wall.Microseconds()) / 1e3,
		CPIStack:        map[string]float64{},
		PF:              pfSummaryOf(res),
	}
	if v != (runVariant{}) {
		s.Variant = fmt.Sprintf("%+v", v)
	}
	if total := float64(res.Agg.Total()); total > 0 {
		for _, k := range cpu.StallKinds {
			s.CPIStack[k.String()] = float64(res.Agg.Cycles[k]) / total
		}
	}
	return s
}

// emitAbort records a failed run so a sweep record shows which cells
// died and why, not just which completed. res carries the partial
// statistics the simulator collected up to the abort point (zero-valued
// when the machine never ran, e.g. a config error); cause is the
// interrupt cause recorded by simulate, empty for non-interrupt aborts.
func (h *Harness) emitAbort(label string, scheme Scheme, v runVariant, runErr error, cause string, res sim.Result, wall time.Duration) (*RunSummary, []byte) {
	s := summaryOf(label, scheme, v, res, wall)
	s.Abort = abortKind(runErr, cause)
	s.Error = runErr.Error()
	for _, stack := range res.Stacks {
		s.RetiredPerCore = append(s.RetiredPerCore, stack.Retired)
	}
	return h.encodeJSON(s)
}

// encodeJSON encodes one summary line. It returns the summary and its
// line (without the newline) for the cell's done event and the JSONL
// log; both are nil when neither JSONLog nor OnCell wants records, and
// the line is nil when the summary cannot be encoded.
func (h *Harness) encodeJSON(s RunSummary) (*RunSummary, []byte) {
	if h.Cfg.JSONLog == nil && h.Cfg.OnCell == nil {
		return nil, nil
	}
	b, err := json.Marshal(s)
	if err != nil {
		// A silently dropped record would leave an invisible hole in the
		// sweep log; report it like logLine's write failures.
		h.logErrorf("exp: json log marshal failed (%s/%s): %v\n", s.Label, s.Scheme, err)
		return &s, nil
	}
	return &s, b
}

// logLine writes one encoded summary line to Config.JSONLog under the log
// mutex; a nil line (no record, or one that failed to encode) writes
// nothing. The newline goes on a copy: line is shared with the cell's
// done event.
func (h *Harness) logLine(line []byte) {
	if h.Cfg.JSONLog == nil || line == nil {
		return
	}
	h.jsonMu.Lock()
	defer h.jsonMu.Unlock()
	if _, err := h.Cfg.JSONLog.Write(append(line[:len(line):len(line)], '\n')); err != nil {
		h.logErrorf("exp: json log write failed: %v\n", err)
	}
}

// logErrorf reports a harness-internal failure on stderr; tests redirect
// it through the errw override.
func (h *Harness) logErrorf(format string, args ...any) {
	w := io.Writer(os.Stderr)
	if h.errw != nil {
		w = h.errw
	}
	fmt.Fprintf(w, format, args...)
}
