package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"prodigy/internal/obs"
	"prodigy/internal/sim"
)

// goldenCfg returns a reduced quick configuration for parallel-vs-serial
// comparisons (fresh harnesses re-simulate everything, so keep the grid
// small: one dataset).
func goldenCfg(parallelism int) Config {
	c := Quick()
	c.Datasets = []string{"po"}
	c.Parallelism = parallelism
	return c
}

// TestParallelMatchesSerialGolden is the determinism guarantee: figure
// tables rendered from a parallel sweep must be byte-identical to serial
// execution, and so must the JSONL log once wall_ms is blanked (lines in
// grid order, not completion order). Run with -race, this test also
// exercises the worker pool for data races (Parallelism 4 > 1).
func TestParallelMatchesSerialGolden(t *testing.T) {
	var serialLog, parallelLog bytes.Buffer
	scfg, pcfg := goldenCfg(1), goldenCfg(4)
	scfg.JSONLog, pcfg.JSONLog = &serialLog, &parallelLog
	serial := New(scfg)
	parallel := New(pcfg)

	type figure struct {
		name  string
		table func(h *Harness) (string, error)
	}
	figures := []figure{
		{"fig2", func(h *Harness) (string, error) {
			r, err := h.Fig2()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{"fig14", func(h *Harness) (string, error) {
			r, err := h.Fig14()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{"table3", func(h *Harness) (string, error) {
			r, err := h.Table3()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
	}
	for _, f := range figures {
		want, err := f.table(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", f.name, err)
		}
		got, err := f.table(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", f.name, err)
		}
		if got != want {
			t.Errorf("%s: parallel table differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
				f.name, want, got)
		}
	}
	wall := regexp.MustCompile(`"wall_ms":[0-9.e+-]+`)
	want := wall.ReplaceAllString(serialLog.String(), `"wall_ms":0`)
	got := wall.ReplaceAllString(parallelLog.String(), `"wall_ms":0`)
	if n := strings.Count(want, "\n"); n < 10 {
		t.Fatalf("serial sweep logged %d JSONL lines, want the figures' cells", n)
	}
	if got != want {
		t.Errorf("parallel JSONL differs from serial (wall_ms blanked)\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestRunGridDeterministicOrder checks results come back in grid order and
// concurrent duplicate cells collapse onto one memoized run.
func TestRunGridDeterministicOrder(t *testing.T) {
	h := New(goldenCfg(4))
	cells := []Cell{
		{"bfs", "po", SchemeNone},
		{"spmv", "", SchemeProdigy},
		{"bfs", "po", SchemeProdigy},
		{"bfs", "po", SchemeNone}, // duplicate of cell 0
	}
	runs, err := h.RunGrid(cells)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{"bfs-po", "spmv", "bfs-po", "bfs-po"}
	wantSchemes := []Scheme{SchemeNone, SchemeProdigy, SchemeProdigy, SchemeNone}
	for i, r := range runs {
		if r.Label != wantLabels[i] || r.Scheme != wantSchemes[i] {
			t.Errorf("runs[%d] = %s/%s, want %s/%s", i, r.Label, r.Scheme, wantLabels[i], wantSchemes[i])
		}
	}
	if runs[0] != runs[3] {
		t.Error("duplicate cells did not share one memoized run")
	}
	if runs[0].Wall <= 0 {
		t.Error("run wall time not recorded")
	}
}

// TestSingleflightSharesOneSimulation hammers one cell from many
// goroutines; all callers must get the same *Run pointer.
func TestSingleflightSharesOneSimulation(t *testing.T) {
	h := New(goldenCfg(0))
	const goroutines = 8
	runs := make([]*Run, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := h.RunOne("cc", "po", SchemeProdigy)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if runs[i] != runs[0] {
			t.Fatalf("goroutine %d got a different run instance", i)
		}
	}
}

// TestPanicBecomesTaggedError checks a crashing simulation is converted
// into an error naming the cell once instead of killing the sweep, and
// that the rest of the grid still completes.
func TestPanicBecomesTaggedError(t *testing.T) {
	cfg := goldenCfg(2)
	// An observability hook that crashes on one cell stands in for a bug
	// inside the simulation; it runs under the per-run recovery.
	cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
		if strings.HasPrefix(cell, "bfs-lj") {
			panic("injected crash")
		}
		return nil, nil, nil
	}
	h := New(cfg)
	_, err := h.RunGrid([]Cell{
		{"bfs", "lj", SchemeNone},
		{"bfs", "po", SchemeNone},
	})
	if err == nil {
		t.Fatal("expected an error for the bad cell")
	}
	// The cell is named exactly once, in its one spelling.
	msg := err.Error()
	if !strings.HasPrefix(msg, "exp: bfs-lj/none: panic: injected crash") || strings.Count(msg, "bfs-lj/none") != 1 || strings.Contains(msg, "bfs/lj") {
		t.Fatalf("error not tagged once with panicking cell: %v", err)
	}
	// The healthy cell completed despite its neighbour crashing.
	if _, err := h.RunOne("bfs", "po", SchemeNone); err != nil {
		t.Fatalf("good cell poisoned by bad cell: %v", err)
	}
	// The panic is memoized as an error, not retried into a second crash.
	if _, err := h.RunOne("bfs", "lj", SchemeNone); err == nil {
		t.Fatal("memoized panic should stay an error")
	}
}

// TestCellErrorsNameCellOnce checks the failures ahead of the simulation
// (a workload build error, an observability setup error) name their cell
// exactly once, as label/scheme, like the panic and abort paths.
func TestCellErrorsNameCellOnce(t *testing.T) {
	cfg := goldenCfg(1)
	cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
		if cell == "bfs-po.prodigy" {
			return nil, nil, errors.New("no recorder")
		}
		return nil, nil, nil
	}
	h := New(cfg)
	cases := []struct {
		cell Cell
		want string
	}{
		{Cell{"bfs", "zz", SchemeNone}, "exp: bfs-zz/none: "},
		{Cell{"bfs", "po", SchemeProdigy}, "exp: bfs-po/prodigy: observability setup: no recorder"},
		{Cell{"spmv", "", "nosuch"}, "exp: spmv/nosuch: unknown scheme"},
	}
	for _, c := range cases {
		_, err := h.RunGrid([]Cell{c.cell})
		if err == nil {
			t.Fatalf("%s: no error", c.cell)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, c.want) || strings.Count(msg, c.cell.String()) != 1 {
			t.Errorf("%s: error %q, want one tag and prefix %q", c.cell, msg, c.want)
		}
	}
}

// TestCellEventsEveryExitPath checks the OnCell contract: every cell of
// a sweep sends one start and then one done event, whether it completed,
// was aborted by a guard, failed before simulating, or panicked, and the
// done event carries exactly the bytes JSONLog received.
func TestCellEventsEveryExitPath(t *testing.T) {
	var jsonl bytes.Buffer
	var mu sync.Mutex
	events := map[Cell][]CellEvent{}
	var lines [][]byte
	var cancelRun bool
	cfg := goldenCfg(1) // serial: Obs and Interrupt see one cell at a time
	cfg.JSONLog = &jsonl
	cfg.OnCell = func(ev CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		events[ev.Cell] = append(events[ev.Cell], ev)
		if ev.Line != nil {
			lines = append(lines, ev.Line)
		}
	}
	cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
		if cell == "bfs-po.prodigy" {
			panic("injected crash")
		}
		cancelRun = cell == "pr-po.none"
		return nil, nil, nil
	}
	cfg.Interrupt = func() string {
		if cancelRun {
			return AbortCanceled
		}
		return ""
	}
	completed := Cell{"bfs", "po", SchemeNone}
	aborted := Cell{"pr", "po", SchemeNone}
	panicked := Cell{"bfs", "po", SchemeProdigy}
	unbuilt := Cell{"bfs", "zz", SchemeNone}
	cells := []Cell{completed, aborted, panicked, unbuilt}
	h := New(cfg)
	if _, err := h.RunGrid(cells); err == nil {
		t.Fatal("sweep with failing cells reported no error")
	}
	for _, c := range cells {
		evs := events[c]
		if len(evs) != 2 || evs[0].Done || !evs[1].Done {
			t.Fatalf("%s: events %+v, want one start then one done", c, evs)
		}
		if evs[0].Summary != nil || evs[0].Line != nil || evs[0].Err != nil {
			t.Errorf("%s: start event carries an outcome: %+v", c, evs[0])
		}
		done := evs[1]
		switch c {
		case completed:
			if done.Err != nil || done.Summary == nil || done.Summary.Abort != "" || done.Line == nil {
				t.Errorf("%s: done event %+v, want a completed record", c, done)
			}
		case aborted:
			if done.Err == nil || done.Summary == nil || done.Summary.Abort != AbortCanceled || done.Line == nil {
				t.Errorf("%s: done event %+v, want a canceled record", c, done)
			}
		default:
			if done.Err == nil || done.Summary != nil || done.Line != nil {
				t.Errorf("%s: done event %+v, want an error and no record", c, done)
			}
		}
	}
	want := append(bytes.Join(lines, []byte("\n")), '\n')
	if len(lines) != 2 || !bytes.Equal(jsonl.Bytes(), want) {
		t.Errorf("event lines differ from the JSON log:\nlog    %s\nevents %s", jsonl.Bytes(), want)
	}

	// A memoized cell sends its events again but not its record, which
	// went out (and into the JSON log) with the job that simulated it.
	if _, err := h.RunGrid([]Cell{completed}); err != nil {
		t.Fatal(err)
	}
	if evs := events[completed]; len(evs) != 4 || evs[3].Err != nil || evs[3].Summary != nil || evs[3].Line != nil {
		t.Errorf("memoized %s: events %+v, want a done event without a record", completed, evs)
	}
	if !bytes.Equal(jsonl.Bytes(), want) {
		t.Errorf("memoized cell wrote to the JSON log again:\n%s", jsonl.Bytes())
	}
}

// TestRunTimeoutAborts checks the wall-clock guard converts an
// over-budget run into a tagged error with MaxCycles-style semantics: the
// typed sentinel survives the exp wrapping (so callers can tell a timeout
// from a generic failure) and the JSONL record names the abort cause.
func TestRunTimeoutAborts(t *testing.T) {
	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.RunTimeout = time.Nanosecond // already expired at the first poll
	cfg.JSONLog = &jsonl
	h := New(cfg)
	_, err := h.RunOne("bfs", "po", SchemeNone)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("expected interrupt error, got %v", err)
	}
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("timeout abort lost the sim.ErrInterrupted sentinel: %v", err)
	}
	if errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("timeout abort misclassified as MaxCycles: %v", err)
	}
	var s RunSummary
	if uerr := json.Unmarshal(jsonl.Bytes(), &s); uerr != nil {
		t.Fatalf("no JSONL abort record: %v (log %q)", uerr, jsonl.String())
	}
	if s.Abort != "timeout" || s.Label != "bfs-po" || s.Scheme != string(SchemeNone) {
		t.Errorf("abort record = %+v, want abort=timeout for bfs-po/none", s)
	}
	if !strings.Contains(s.Error, "interrupted") {
		t.Errorf("abort record error %q missing cause", s.Error)
	}
	// Without the timeout the same cell runs fine on a fresh harness.
	h2 := New(goldenCfg(1))
	if _, err := h2.RunOne("bfs", "po", SchemeNone); err != nil {
		t.Fatal(err)
	}
}

// TestMaxCyclesThreaded checks exp.Config.MaxCycles reaches the simulator
// and its abort is classified distinctly from a timeout.
func TestMaxCyclesThreaded(t *testing.T) {
	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.MaxCycles = 10
	cfg.JSONLog = &jsonl
	h := New(cfg)
	_, err := h.RunOne("bfs", "po", SchemeNone)
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("expected MaxCycles error, got %v", err)
	}
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("MaxCycles abort lost its sentinel: %v", err)
	}
	var s RunSummary
	if uerr := json.Unmarshal(jsonl.Bytes(), &s); uerr != nil {
		t.Fatalf("no JSONL abort record: %v", uerr)
	}
	if s.Abort != "max-cycles" {
		t.Errorf("abort = %q, want max-cycles", s.Abort)
	}
	// The abort record still reports the progress the run made: cycles
	// simulated so far and each core's retired count.
	if s.Cycles == 0 {
		t.Errorf("abort record has no cycles-so-far: %+v", s)
	}
	if len(s.RetiredPerCore) == 0 {
		t.Errorf("abort record missing retired_per_core: %+v", s)
	}
}

// TestProgressAndJSONReporting checks the observability surfaces: the
// progress reporter emits a final sweep summary and JSONLog carries one
// well-formed summary line per executed simulation.
func TestProgressAndJSONReporting(t *testing.T) {
	var progress, jsonl bytes.Buffer
	cfg := goldenCfg(2)
	cfg.Progress = &progress
	cfg.ProgressInterval = time.Millisecond
	cfg.JSONLog = &jsonl
	h := New(cfg)

	if _, err := h.Fig2(); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if !strings.Contains(out, "sweep finished") || !strings.Contains(out, "4/4 runs") {
		t.Errorf("progress output missing summary:\n%s", out)
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSON lines = %d, want 4 (one per simulation)", len(lines))
	}
	schemes := map[string]bool{}
	for _, line := range lines {
		var s RunSummary
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if s.Label != "pr-lj" || s.Cycles <= 0 || s.Retired <= 0 || s.WallMS <= 0 {
			t.Errorf("degenerate summary: %+v", s)
		}
		var sum float64
		for _, f := range s.CPIStack {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s/%s: CPI stack sums to %f", s.Label, s.Scheme, sum)
		}
		schemes[s.Scheme] = true
	}
	for _, want := range []Scheme{SchemeNone, SchemeGHB, SchemeDroplet, SchemeProdigy} {
		if !schemes[string(want)] {
			t.Errorf("no JSON summary for scheme %s", want)
		}
	}

	// Re-running the figure hits the memoization cache: no new JSON lines.
	jsonl.Reset()
	if _, err := h.Fig2(); err != nil {
		t.Fatal(err)
	}
	if jsonl.Len() != 0 {
		t.Errorf("cached replay re-emitted JSON: %q", jsonl.String())
	}
}

// TestSweepDedupesJobs checks sweep returns runs aligned with its jobs,
// runs each distinct job once (duplicates share one *Run and one done
// event), and that a Fig. 12 pfhr=16 job collapses onto the default
// Prodigy job because both build the same machine.
func TestSweepDedupesJobs(t *testing.T) {
	cfg := goldenCfg(2)
	var mu sync.Mutex
	done := map[Cell]int{}
	cfg.OnCell = func(ev CellEvent) {
		if ev.Done {
			mu.Lock()
			done[ev.Cell]++
			mu.Unlock()
		}
	}
	h := New(cfg)
	jobs := []job{
		h.job("bfs", "po", SchemeNone, runVariant{}),
		h.job("bfs", "po", SchemeProdigy, runVariant{pfhr: 16}),
		h.job("bfs", "po", SchemeNone, runVariant{}),
		h.job("bfs", "po", SchemeProdigy, runVariant{}),
		h.job("bfs", "po", SchemeProdigy, runVariant{pfhr: 4}),
	}
	runs, err := h.sweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(jobs) {
		t.Fatalf("%d runs for %d jobs", len(runs), len(jobs))
	}
	for i, j := range jobs {
		if runs[i].Scheme != j.Scheme || runs[i].Label != j.Label() {
			t.Errorf("runs[%d] = %s/%s, want %s", i, runs[i].Label, runs[i].Scheme, j.Cell)
		}
	}
	if runs[0] != runs[2] {
		t.Error("duplicate baseline jobs did not share one run")
	}
	if runs[1] != runs[3] {
		t.Error("pfhr=16 job did not collapse onto the default Prodigy job")
	}
	if runs[3] == runs[4] {
		t.Error("pfhr=4 job shares the default Prodigy run")
	}
	want := map[Cell]int{{"bfs", "po", SchemeNone}: 1, {"bfs", "po", SchemeProdigy}: 2}
	if !maps.Equal(done, want) {
		t.Errorf("done events per cell %v, want %v (one per distinct job)", done, want)
	}
}
