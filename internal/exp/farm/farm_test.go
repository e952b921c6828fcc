package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/obs"
	"prodigy/internal/telemetry"
	"prodigy/internal/workloads"
)

// quickCfg is the tiny sweep configuration the farm tests run under: one
// dataset so a two-scheme sweep is exactly two cells.
func quickCfg(parallelism int) exp.Config {
	c := exp.Quick()
	c.Datasets = []string{"po"}
	c.Parallelism = parallelism
	return c
}

var quickSpec = Spec{Algos: []string{"bfs"}, Schemes: []string{"none", "prodigy"}}

// mustNew builds a farm whose journal (if any) closes with the test.
func mustNew(t testing.TB, cfg Config) *Farm {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	return f
}

// sortedLines renders log lines sorted, for order-insensitive
// byte-identity comparison (live sweeps stream in completion order,
// cached replays in grid order).
func sortedLines(lines [][]byte) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	sort.Strings(out)
	return out
}

// TestSweepStreamsPersistsAndReplays is the farm's core contract: a
// sweep simulates its cells once, persists each completed summary line,
// journals a record that rebuilds the stream byte for byte, and — after a full
// store-close/reopen cycle standing in for a server restart — replays
// every cell byte-identically without simulating.
func TestSweepStreamsPersistsAndReplays(t *testing.T) {
	dir := t.TempDir()

	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := mustNew(t, Config{Exp: quickCfg(2), Store: store, LogDir: dir})
	sw, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	st := sw.Status()
	if st.Cells != 2 || st.Cached != 0 || st.Simulated != 2 || st.Aborted != 0 || !st.Done || st.Canceled {
		t.Fatalf("live sweep status = %+v", st)
	}
	first := sw.Log.Lines()
	if len(first) != 2 {
		t.Fatalf("streamed %d lines, want 2", len(first))
	}
	for _, line := range first {
		var s exp.RunSummary
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("bad summary line %q: %v", line, err)
		}
		if s.Abort != "" || s.Cycles <= 0 {
			t.Fatalf("degenerate summary: %s", line)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d cells, want 2", store.Len())
	}
	// The journal record plus the store rebuild exactly the streamed
	// NDJSON.
	rebuilt, err := f.load(sw.ID)
	if err != nil || rebuilt == nil {
		t.Fatalf("load %s = %v, %v", sw.ID, rebuilt, err)
	}
	if got, want := string(rebuilt.Log.Snapshot()), string(sw.Log.Snapshot()); got != want {
		t.Errorf("journal rebuild differs from stream:\nrebuilt: %q\nstream:  %q", got, want)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store and farm over the same directory.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := store2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if store2.Len() != 2 || store2.Skipped != 0 {
		t.Fatalf("reloaded store: %d cells (%d skipped), want 2 (0)", store2.Len(), store2.Skipped)
	}
	f2 := mustNew(t, Config{Exp: quickCfg(2), Store: store2})
	sw2, err := f2.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-sw2.Done()
	st2 := sw2.Status()
	if st2.Cached != 2 || st2.Simulated != 0 || !st2.Done {
		t.Fatalf("replay sweep status = %+v", st2)
	}
	a, b := sortedLines(first), sortedLines(sw2.Log.Lines())
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("replay not byte-identical:\nlive:   %v\nreplay: %v", a, b)
		}
	}

	// Cached results must match a fresh, farm-free harness simulating the
	// same grid: the cache only skips work, it never changes results.
	fresh := exp.New(quickCfg(2))
	sums, err := sw2.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		algo, _, _ := strings.Cut(s.Label, "-")
		r, err := fresh.RunOne(algo, "po", exp.Scheme(s.Scheme))
		if err != nil {
			t.Fatal(err)
		}
		if r.Res.Cycles != s.Cycles {
			t.Errorf("%s/%s: cached cycles %d != fresh %d", s.Label, s.Scheme, s.Cycles, r.Res.Cycles)
		}
		if s.PF != nil && r.Res.PFQAgg.Issued != s.PF.Issued {
			t.Errorf("%s/%s: cached pf.issued %d != fresh %d", s.Label, s.Scheme, s.PF.Issued, r.Res.PFQAgg.Issued)
		}
	}
}

// TestConcurrentClientsSeeIdenticalStreams attaches several subscribers
// to one live sweep — some joining before any cell completes, the log
// itself being the only ordering authority — and checks every client
// received byte-identical NDJSON.
func TestConcurrentClientsSeeIdenticalStreams(t *testing.T) {
	f := mustNew(t, Config{Exp: quickCfg(2)})
	sw, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	bufs := make([]bytes.Buffer, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sw.Log.Stream(context.Background(), &bufs[i]); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	<-sw.Done()
	want := bufs[0].String()
	if lines := strings.Count(want, "\n"); lines != 2 {
		t.Fatalf("client 0 received %d lines, want 2:\n%s", lines, want)
	}
	for i := 1; i < clients; i++ {
		if got := bufs[i].String(); got != want {
			t.Errorf("client %d stream differs:\nclient 0: %q\nclient %d: %q", i, want, i, got)
		}
	}
}

// TestCancelMidSweepKeepsCompletedCells cancels a serial sweep exactly
// when its second cell starts (through the harness's per-run Obs hook,
// which fires before the simulation): the completed first cell must be
// cached, the canceled cell tagged "canceled" and *not* cached, and a
// re-submitted sweep must replay the survivor and simulate only the
// canceled cell.
func TestCancelMidSweepKeepsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	}()

	var mu sync.Mutex
	var f *Farm
	// The farm's first sweep is s001; naming it up front keeps the hook
	// from racing Start's return.
	const cancelID = "s001"
	runs := 0
	cfg := quickCfg(1) // serial: cells run in grid order
	cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
		mu.Lock()
		defer mu.Unlock()
		runs++
		if runs == 2 {
			// The first cell has completed (serial pool); the second is about
			// to simulate. Cancel now — deterministically mid-sweep.
			if err := f.Cancel(cancelID); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
		return nil, nil, nil
	}
	f = mustNew(t, Config{Exp: cfg, Store: store})

	sw, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sw.ID != cancelID {
		t.Fatalf("first sweep is %s, want %s", sw.ID, cancelID)
	}
	<-sw.Done()

	st := sw.Status()
	if !st.Canceled || st.Simulated != 1 || st.Aborted != 1 || st.Cached != 0 {
		t.Fatalf("canceled sweep status = %+v", st)
	}
	if err := sw.Err(); err == nil {
		t.Fatal("canceled sweep reported no error")
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d cells after cancel, want 1 (completed cell only)", store.Len())
	}
	var sawCanceled bool
	for _, line := range sw.Log.Lines() {
		var s exp.RunSummary
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatal(err)
		}
		if s.Abort != "" {
			if s.Abort != exp.AbortCanceled {
				t.Errorf("aborted cell tagged %q, want %q", s.Abort, exp.AbortCanceled)
			}
			sawCanceled = true
		}
	}
	if !sawCanceled {
		t.Fatal("no canceled abort record in the sweep stream")
	}

	// Resubmission resumes: the survivor replays, only the canceled cell
	// simulates (Obs run counter: one more live run).
	sw2, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-sw2.Done()
	if err := sw2.Err(); err != nil {
		t.Fatal(err)
	}
	st2 := sw2.Status()
	if st2.Cached != 1 || st2.Simulated != 1 || st2.Aborted != 0 {
		t.Fatalf("resumed sweep status = %+v", st2)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d cells after resume, want 2", store.Len())
	}
}

// TestShutdownDrainAbortsWithCause forces an already-expired drain
// deadline: in-flight cells must abort tagged "shutdown" (so the next
// submission re-runs them), Shutdown must return the context error to
// signal the forced stop, and new sweeps must be rejected.
func TestShutdownDrainAbortsWithCause(t *testing.T) {
	var f *Farm
	cfg := quickCfg(1)
	// Hold the cell until the drain deadline has expired, so it is
	// deterministically in flight when draining begins rather than racing
	// a short simulation against Shutdown.
	cfg.Obs = func(string) (*obs.Recorder, func() error, error) {
		for !f.draining.Load() {
			time.Sleep(time.Millisecond)
		}
		return nil, nil, nil
	}
	f = mustNew(t, Config{Exp: cfg})
	sw, err := f.Start(Spec{Algos: []string{"bfs"}, Schemes: []string{"prodigy"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already expired: drain immediately
	if err := f.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	<-sw.Done()
	st := sw.Status()
	if st.Aborted != 1 || st.Simulated != 0 {
		t.Fatalf("drained sweep status = %+v", st)
	}
	var s exp.RunSummary
	lines := sw.Log.Lines()
	if len(lines) != 1 {
		t.Fatalf("drained sweep streamed %d lines, want 1", len(lines))
	}
	if err := json.Unmarshal(lines[0], &s); err != nil {
		t.Fatal(err)
	}
	if s.Abort != exp.AbortShutdown {
		t.Errorf("drained cell tagged %q, want %q", s.Abort, exp.AbortShutdown)
	}
	if _, err := f.Start(quickSpec); err != ErrShutdown {
		t.Fatalf("Start after Shutdown = %v, want ErrShutdown", err)
	}
}

// TestSpecValidation checks the wire-spec expansion: unknown names are
// rejected, duplicates collapse, and non-graph kernels ignore the
// dataset axis.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Schemes: []string{"none"}},
		{Algos: []string{"bfs"}},
		{Algos: []string{"nosuch"}, Schemes: []string{"none"}},
		{Algos: []string{"bfs"}, Datasets: []string{"nosuch"}, Schemes: []string{"none"}},
		{Algos: []string{"bfs"}, Schemes: []string{"nosuch"}},
	}
	for i, sp := range bad {
		if _, err := sp.cells([]string{"po"}); err == nil {
			t.Errorf("bad spec %d (%+v) accepted", i, sp)
		}
	}
	sp := Spec{
		Algos:    []string{"bfs", "spmv", "bfs"},
		Datasets: []string{"po", "lj"},
		Schemes:  []string{"none", "none"},
	}
	cells, err := sp.cells([]string{"po"})
	if err != nil {
		t.Fatal(err)
	}
	want := []exp.Cell{
		{Algo: "bfs", Dataset: "po", Scheme: exp.SchemeNone},
		{Algo: "bfs", Dataset: "lj", Scheme: exp.SchemeNone},
		{Algo: "spmv", Dataset: "", Scheme: exp.SchemeNone},
	}
	if len(cells) != len(want) {
		t.Fatalf("cells = %+v, want %+v", cells, want)
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cells[%d] = %+v, want %+v", i, cells[i], want[i])
		}
	}
}

// FuzzSpecCells decodes arbitrary bytes as a sweep spec and expands it.
// Expansion never panics, and an accepted spec yields every cell of its
// grid exactly once, in grid order (algos, then datasets, then schemes,
// each ranked by first mention), naming only known algos, datasets and
// schemes; non-graph algos, and only they, take no dataset.
func FuzzSpecCells(f *testing.F) {
	defaults := exp.Quick().Datasets
	f.Add([]byte(`{"algos":["bfs"],"schemes":["none","prodigy"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		cells, err := sp.cells(defaults)
		if err != nil {
			return
		}
		datasets := sp.Datasets
		if len(datasets) == 0 {
			datasets = defaults
		}
		algoRank, dsRank, schemeRank := firstRank(sp.Algos), firstRank(datasets), firstRank(sp.Schemes)
		want := 0
		for a := range algoRank {
			if workloads.IsGraphAlgo(a) {
				want += len(dsRank) * len(schemeRank)
			} else {
				want += len(schemeRank)
			}
		}
		if len(cells) != want {
			t.Fatalf("%+v expands to %d cells, want %d", sp, len(cells), want)
		}
		prev := []int{-1, -1, -1}
		for _, c := range cells {
			if !slices.Contains(workloads.AllAlgos, c.Algo) {
				t.Fatalf("cell %s: unknown algo", c)
			}
			if workloads.IsGraphAlgo(c.Algo) == (c.Dataset == "") {
				t.Fatalf("cell %s: graph algo without dataset, or non-graph algo with one", c)
			}
			if c.Dataset != "" && !slices.Contains(graph.DatasetNames(), c.Dataset) {
				t.Fatalf("cell %s: unknown dataset", c)
			}
			if k, err := exp.ParseScheme(string(c.Scheme)); err != nil || k != c.Scheme {
				t.Fatalf("cell %s: scheme does not round-trip: %v", c, err)
			}
			pos := []int{algoRank[c.Algo], 0, schemeRank[string(c.Scheme)]}
			if c.Dataset != "" {
				pos[1] = dsRank[c.Dataset]
			}
			if slices.Compare(prev, pos) >= 0 {
				t.Fatalf("cells %v repeat or leave grid order at %s", cells, c)
			}
			prev = pos
		}
	})
}

// firstRank ranks names by first mention, ignoring repeats.
func firstRank(names []string) map[string]int {
	rank := map[string]int{}
	for _, n := range names {
		if _, ok := rank[n]; !ok {
			rank[n] = len(rank)
		}
	}
	return rank
}

// TestStoreSkipsCorruptLines checks crash resilience: a truncated or
// foreign line in results.jsonl is counted and skipped, never poisoning
// the valid entries around it, and appends continue to work afterwards.
func TestStoreSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	valid, err := json.Marshal(storeEntry{Key: "k1", Summary: json.RawMessage(`{"label":"x"}`)})
	if err != nil {
		t.Fatal(err)
	}
	content := string(valid) + "\n" + "not json\n" + `{"key":""}` + "\n" + `{"key":"k2","summary":` // truncated
	if err := os.WriteFile(StorePath(dir), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	if s.Len() != 1 || s.Skipped != 3 {
		t.Fatalf("store loaded %d cells (%d skipped), want 1 (3)", s.Len(), s.Skipped)
	}
	line, ok := s.Get("k1")
	if !ok || string(line) != `{"label":"x"}` {
		t.Fatalf("k1 = %q (%v)", line, ok)
	}
	if err := s.Put("k3", []byte(`{"label":"y"}`)); err != nil {
		t.Fatal(err)
	}
	// Re-putting an existing key is a no-op; the first result stays.
	if err := s.Put("k1", []byte(`{"label":"overwrite"}`)); err != nil {
		t.Fatal(err)
	}
	if line, _ := s.Get("k1"); string(line) != `{"label":"x"}` {
		t.Errorf("re-put overwrote k1: %q", line)
	}
}

// snapValue reads one counter/gauge sample out of a registry snapshot;
// want holds the expected label pairs (nil for an unlabeled sample).
func snapValue(t *testing.T, reg *telemetry.Registry, family string, want map[string]string) int64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != family {
			continue
		}
		for _, sm := range f.Samples {
			if len(sm.Labels) != len(want) {
				continue
			}
			match := true
			for k, v := range want {
				if sm.Labels[k] != v {
					match = false
				}
			}
			if match && sm.Value != nil {
				return *sm.Value
			}
		}
	}
	t.Fatalf("registry has no %s%v sample", family, want)
	return 0
}

// TestFarmMetricsSettleAfterSweep runs a live sweep with a telemetry
// registry attached while scrapers hammer both exposition formats
// concurrently (meaningful under -race), then checks the counters agree
// with the sweep's outcome, the gauges settle back to zero, and a
// second, fully-cached sweep moves only the hit-side counters.
func TestFarmMetricsSettleAfterSweep(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	}()
	reg := telemetry.NewRegistry()
	f := mustNew(t, Config{Exp: quickCfg(2), Store: store, LogDir: dir, Metrics: reg})

	sw, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Scrapers race the sweep's counter/gauge/histogram writes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
					if err := reg.WriteJSON(io.Discard); err != nil {
						t.Errorf("WriteJSON: %v", err)
						return
					}
					_ = sw.Status()
				}
			}
		}()
	}
	<-sw.Done()
	close(stop)
	wg.Wait()
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}

	check := func(family string, labels map[string]string, want int64) {
		t.Helper()
		if got := snapValue(t, reg, family, labels); got != want {
			t.Errorf("%s%v = %d, want %d", family, labels, got, want)
		}
	}
	check("farm_cache_misses_total", nil, 2)
	check("farm_cache_hits_total", nil, 0)
	check("farm_cells_total", map[string]string{"state": "simulated"}, 2)
	check("farm_cells_total", map[string]string{"state": "cached"}, 0)
	check("farm_sweeps_total", nil, 1)
	check("farm_sweeps_active", nil, 0)
	check("farm_queue_depth", nil, 0)
	check("farm_cells_inflight", nil, 0)

	// One wall-clock sample per live-simulated cell, split by scheme.
	var histSamples uint64
	for _, fam := range reg.Snapshot() {
		if fam.Name != "farm_cell_wall_us" {
			continue
		}
		for _, sm := range fam.Samples {
			if sm.Hist != nil {
				histSamples += sm.Hist.Count
			}
		}
	}
	if histSamples != 2 {
		t.Errorf("farm_cell_wall_us recorded %d samples, want 2", histSamples)
	}

	// Second sweep replays everything from the cache.
	sw2, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-sw2.Done()
	check("farm_cache_hits_total", nil, 2)
	check("farm_cache_misses_total", nil, 2)
	check("farm_cells_total", map[string]string{"state": "cached"}, 2)
	check("farm_sweeps_total", nil, 2)
	check("farm_sweeps_active", nil, 0)
}

// TestCellDyingWithoutLineIsTallied is the regression for a cell that
// dies before writing a summary line (here a panic in the per-run Obs
// hook). It must leave the in-flight view as soon as it dies, not at
// sweep end, and count once as aborted with cause "error", while the
// stream carries only the surviving cell's line.
func TestCellDyingWithoutLineIsTallied(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	cfg := quickCfg(1) // serial: the none cell dies before prodigy starts
	cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
		if cell == "bfs-po.none" {
			panic("boom")
		}
		held <- struct{}{}
		<-release
		return nil, nil, nil
	}
	reg := telemetry.NewRegistry()
	f := mustNew(t, Config{Exp: cfg, Metrics: reg})
	sw, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(family string, labels map[string]string, want int64) {
		t.Helper()
		if got := snapValue(t, reg, family, labels); got != want {
			t.Errorf("%s%v = %d, want %d", family, labels, got, want)
		}
	}

	<-held
	if st := sw.Status(); st.InFlight != 1 || st.Queued != 0 || st.Aborted != 1 {
		t.Errorf("status while the prodigy cell runs = %+v, want 1 in flight, 0 queued, 1 aborted", st)
	}
	check("farm_cells_inflight", nil, 1)
	close(release)
	<-sw.Done()

	st := sw.Status()
	if st.Cached+st.Simulated+st.Aborted != st.Cells || st.Aborted != 1 || st.Simulated != 1 {
		t.Errorf("final status = %+v, want every cell tallied: 1 simulated, 1 aborted", st)
	}
	if err := sw.Err(); err == nil || strings.Count(err.Error(), "bfs-po/none") != 1 {
		t.Errorf("sweep error %v, want the dead cell named once", err)
	}
	check("farm_cells_aborted_total", map[string]string{"cause": "error"}, 1)
	check("farm_queue_depth", nil, 0)
	check("farm_cells_inflight", nil, 0)
	if lines := sw.Log.Lines(); len(lines) != 1 {
		t.Errorf("stream holds %d lines, want 1 (the dead cell writes none)", len(lines))
	}
}
