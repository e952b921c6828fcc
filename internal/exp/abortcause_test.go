package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/sim"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// TestAbortKindClassification pins the abort taxonomy: the typed sim
// sentinels map to their named tags, and an interrupted run reports the
// cause recorded by whichever interrupt source tripped — a server cancel
// is "canceled", never misreported as "timeout".
func TestAbortKindClassification(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("exp: bfs-po/none: %w", err) }
	cases := []struct {
		err   error
		cause string
		want  string
	}{
		{wrap(sim.ErrInterrupted), AbortTimeout, "timeout"},
		{wrap(sim.ErrInterrupted), AbortCanceled, "canceled"},
		{wrap(sim.ErrInterrupted), AbortShutdown, "shutdown"},
		{wrap(sim.ErrInterrupted), "", "interrupted"},
		{wrap(sim.ErrMaxCycles), "", "max-cycles"},
		{wrap(sim.ErrDeadlock), "", "deadlock"},
		{wrap(errors.New("boom")), "", "error"},
		// A cause only applies to interrupts; other sentinels ignore it.
		{wrap(sim.ErrMaxCycles), AbortCanceled, "max-cycles"},
	}
	for _, c := range cases {
		if got := abortKind(c.err, c.cause); got != c.want {
			t.Errorf("abortKind(%v, %q) = %q, want %q", c.err, c.cause, got, c.want)
		}
	}
}

// TestInterruptCauseCanceled is the regression for the abort
// misclassification bug: an external canceler (Config.Interrupt) used to
// surface as abort="timeout" because every sim.ErrInterrupted was
// attributed to the watchdog. The JSONL record must say "canceled".
func TestInterruptCauseCanceled(t *testing.T) {
	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	cfg.Interrupt = func() string { return AbortCanceled }
	h := New(cfg)
	_, err := h.RunOne("bfs", "po", SchemeNone)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("expected interrupt abort, got %v", err)
	}
	var s RunSummary
	if uerr := json.Unmarshal(jsonl.Bytes(), &s); uerr != nil {
		t.Fatalf("no JSONL abort record: %v (log %q)", uerr, jsonl.String())
	}
	if s.Abort != AbortCanceled {
		t.Errorf("abort = %q, want %q (external cancel misclassified)", s.Abort, AbortCanceled)
	}
}

// TestInterruptCauseBeatsExpiredTimeout pins the documented poll order:
// external interrupts are checked ahead of the RunTimeout watchdog, so a
// cell canceled after its deadline already expired is still reported
// "canceled", not "timeout".
func TestInterruptCauseBeatsExpiredTimeout(t *testing.T) {
	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	cfg.RunTimeout = time.Nanosecond // expired before the first poll
	cfg.Interrupt = func() string { return AbortShutdown }
	h := New(cfg)
	if _, err := h.RunOne("bfs", "po", SchemeNone); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("expected interrupt abort, got %v", err)
	}
	var s RunSummary
	if uerr := json.Unmarshal(jsonl.Bytes(), &s); uerr != nil {
		t.Fatalf("no JSONL abort record: %v", uerr)
	}
	if s.Abort != AbortShutdown {
		t.Errorf("abort = %q, want %q (external cause outranks the expired watchdog)", s.Abort, AbortShutdown)
	}
}

// TestSummaryGoldenSchema pins the exact JSONL bytes for the two
// degenerate record shapes that used to disagree: a completed run whose
// stall total is zero and an aborted run that never simulated a cycle.
// Both must carry "cpi_stack":{} — one schema, never null — so JSONL
// consumers (and the farm's byte-identical replay cache) see a stable
// contract.
func TestSummaryGoldenSchema(t *testing.T) {
	completed, err := json.Marshal(summarize(&Run{Label: "x", Scheme: SchemeNone}, runVariant{}))
	if err != nil {
		t.Fatal(err)
	}
	wantCompleted := `{"label":"x","scheme":"none","cycles":0,"retired":0,"ipc":0,"cpi_stack":{},"dram_util":0,"wall_ms":0}`
	if string(completed) != wantCompleted {
		t.Errorf("completed zero-total record:\n got %s\nwant %s", completed, wantCompleted)
	}

	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	h := New(cfg)
	_, line := h.emitAbort("x", SchemeNone, runVariant{}, errors.New("boom"), "", sim.Result{}, 0)
	h.logLine(line)
	wantAborted := `{"label":"x","scheme":"none","cycles":0,"retired":0,"ipc":0,"cpi_stack":{},"dram_util":0,"wall_ms":0,"abort":"error","error":"boom"}` + "\n"
	if jsonl.String() != wantAborted {
		t.Errorf("aborted zero-progress record:\n got %s\nwant %s", jsonl.String(), wantAborted)
	}
}

// TestWriteJSONMarshalErrorReported is the regression for the silent
// json.Marshal drop: an unmarshalable summary (NaN IPC) must surface on
// the harness error stream naming the cell, and write nothing to the
// sweep log (no partial line, no hole disguised as success).
func TestWriteJSONMarshalErrorReported(t *testing.T) {
	var jsonl, errs bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	h := New(cfg)
	h.errw = &errs
	_, line := h.encodeJSON(RunSummary{Label: "bfs-po", Scheme: "none", IPC: math.NaN(), CPIStack: map[string]float64{}})
	h.logLine(line)
	if jsonl.Len() != 0 {
		t.Errorf("unmarshalable summary wrote %q to the JSON log", jsonl.String())
	}
	out := errs.String()
	if !strings.Contains(out, "marshal failed") || !strings.Contains(out, "bfs-po/none") {
		t.Errorf("marshal failure not reported with the cell name: %q", out)
	}
}

// TestFinishedRunsPinNothing is the regression for finished runs that
// kept whole simulations alive: a Result holding live prefetchers (whose
// Env closures capture the machine, its trace readers and the memory
// image) and a Run holding its workload. Every scheme runs through the
// harness, plus one direct Prodigy sim.Run; with every Run and Result
// still referenced, the memory image and the trace generator of each
// simulation must be collectable.
func TestFinishedRunsPinNothing(t *testing.T) {
	var mu sync.Mutex
	type watched struct {
		what  string
		freed *atomic.Bool
	}
	var all []watched
	watch := func(what string, sp *memspace.Space, g *trace.Gen) {
		fs, fg := new(atomic.Bool), new(atomic.Bool)
		runtime.AddCleanup(sp, func(f *atomic.Bool) { f.Store(true) }, fs)
		runtime.AddCleanup(g, func(f *atomic.Bool) { f.Store(true) }, fg)
		mu.Lock()
		all = append(all, watched{what + " memspace", fs}, watched{what + " trace.Gen", fg})
		mu.Unlock()
	}

	h := New(goldenCfg(2))
	h.built = func(c Cell, sp *memspace.Space, g *trace.Gen) { watch(c.String(), sp, g) }
	var cells []Cell
	for _, s := range Schemes() {
		cells = append(cells, Cell{"pr", "po", s})
	}
	runs, err := h.RunGrid(cells)
	if err != nil {
		t.Fatal(err)
	}
	res := directProdigyRun(t, watch)
	// Runs the simulator stops early (the MaxCycles guard, an external
	// interrupt) return with the workload kernel suspended in a barrier;
	// ending it must release the generator and the memory image too.
	maxCycles, interrupted := goldenCfg(1), goldenCfg(1)
	maxCycles.MaxCycles = 1000
	polls := 0
	interrupted.Interrupt = func() string {
		if polls++; polls > 2 {
			return AbortCanceled
		}
		return ""
	}
	var stopped []*Harness
	for _, cfg := range []Config{maxCycles, interrupted} {
		hs := New(cfg)
		what := fmt.Sprintf("stopped run #%d", len(stopped))
		hs.built = func(c Cell, sp *memspace.Space, g *trace.Gen) { watch(what+" "+c.String(), sp, g) }
		if _, err := hs.RunOne("bfs", "po", SchemeProdigy); err == nil {
			t.Fatalf("%s: run was not stopped early", what)
		}
		stopped = append(stopped, hs)
	}

	if want := 2 * (len(cells) + 1 + len(stopped)); len(all) != want {
		t.Fatalf("watching %d objects, want %d", len(all), want)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		var live []string
		for _, w := range all {
			if !w.freed.Load() {
				live = append(live, w.what)
			}
		}
		if len(live) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d per-run objects still reachable from finished runs: %v", len(live), len(all), live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(h)
	runtime.KeepAlive(runs)
	runtime.KeepAlive(res)
	runtime.KeepAlive(stopped)
}

// directProdigyRun simulates bfs-po under Prodigy with sim.Run, outside
// the harness, and returns only the Result.
func directProdigyRun(t *testing.T, watch func(string, *memspace.Space, *trace.Gen)) *sim.Result {
	w, err := workloads.Build("bfs", "po", 2, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default(2)
	cfg.Prefetcher = core.New(w.DIG, core.DefaultConfig())
	gen := trace.NewGen(2, 0)
	watch("direct sim.Run bfs-po/prodigy", w.Space, gen)
	res, err := sim.Run(cfg, w.Space, gen, w.Run)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeStats[0] == nil {
		t.Fatal("direct Prodigy run reported no scheme counters")
	}
	return &res
}
