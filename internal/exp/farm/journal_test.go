package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/obs"
	"prodigy/internal/telemetry"
	"prodigy/internal/workloads"
)

// seedStore fills store with a fabricated summary line for every cell
// of spec, so sweeps of spec replay without simulating. pad widens each
// line, to make retained sweeps visible on the heap.
func seedStore(t testing.TB, f *Farm, store *Store, spec Spec, pad int) {
	t.Helper()
	cells, err := spec.cells(f.cfg.Exp.Datasets)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := f.cellKeys(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		line := fmt.Sprintf(`{"label":%q,"scheme":%q,"cycles":%d,"pad":%q}`,
			cellLabel(c), c.Scheme, 1000+i, strings.Repeat("x", pad))
		if err := store.Put(keys[i], []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
}

// statusJSON renders a status the way GET /sweeps/{id} does, for
// comparing a retained sweep with its journal rebuild.
func statusJSON(t testing.TB, st Status) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// openTestStore opens a store under dir that closes with the test.
func openTestStore(t testing.TB, dir string) *Store {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	})
	return store
}

// TestCellKeysMemoized checks that the farm's memoized key of every cell
// of the full grid equals the harness's own CellKey, on first derivation
// and on reuse.
func TestCellKeysMemoized(t *testing.T) {
	cfg := quickCfg(1)
	f := mustNew(t, Config{Exp: cfg})
	var cells []exp.Cell
	for _, a := range workloads.AllAlgos {
		ds := graph.DatasetNames()
		if !workloads.IsGraphAlgo(a) {
			ds = []string{""}
		}
		for _, d := range ds {
			for _, s := range exp.Schemes() {
				cells = append(cells, exp.Cell{Algo: a, Dataset: d, Scheme: s})
			}
		}
	}
	ref := exp.New(cfg)
	for pass := 0; pass < 2; pass++ {
		keys, err := f.cellKeys(cells)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			want, err := ref.CellKey(c.Algo, c.Dataset, c.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			if keys[i] != want {
				t.Fatalf("pass %d: %+v: memoized key %s, harness key %s", pass, c, keys[i], want)
			}
		}
	}
	if len(f.keys) != len(cells) {
		t.Fatalf("farm memoized %d keys for %d cells", len(f.keys), len(cells))
	}
}

// TestJournalRebuildsEverySweepKind journals a live sweep, a cached one,
// a canceled one (its abort line inline), and one whose store Put failed
// (its line inline), checks each rebuild from the journal is
// byte-identical to the live stream, then evicts them all and checks Get
// serves the same bytes and status from the journal.
func TestJournalRebuildsEverySweepKind(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	reg := telemetry.NewRegistry()
	var (
		mu       sync.Mutex
		f        *Farm
		cancelID string
	)
	cfg := quickCfg(1)
	cfg.Obs = func(string) (*obs.Recorder, func() error, error) {
		mu.Lock()
		defer mu.Unlock()
		if cancelID != "" {
			if err := f.Cancel(cancelID); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
		return nil, nil, nil
	}
	f = mustNew(t, Config{Exp: cfg, Store: store, LogDir: dir, Metrics: reg})
	startWait := func(spec Spec) *Sweep {
		t.Helper()
		sw, err := f.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-sw.Done()
		return sw
	}

	live := startWait(quickSpec)
	cached := startWait(quickSpec)
	if st := cached.Status(); st.Cached != 2 || !st.Done {
		t.Fatalf("cached sweep status = %+v", st)
	}
	// The canceled sweep is registered before its cell reaches the Obs
	// hook: the farm assigns IDs in sequence.
	mu.Lock()
	cancelID = fmt.Sprintf("s%03d", f.nextID+1)
	mu.Unlock()
	canceled := startWait(Spec{Algos: []string{"bfs"}, Schemes: []string{"stride"}})
	mu.Lock()
	cancelID = ""
	mu.Unlock()
	if st := canceled.Status(); !st.Canceled || st.Aborted != 1 {
		t.Fatalf("canceled sweep status = %+v", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	prevLog := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prevLog) })
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logged, nil)))
	putFailed := startWait(Spec{Algos: []string{"bfs"}, Schemes: []string{"ghb-gdc"}})
	slog.SetDefault(prevLog)
	if st := putFailed.Status(); st.Simulated != 1 {
		t.Fatalf("put-failed sweep status = %+v", st)
	}
	if got := snapValue(t, reg, "farm_errors_total", map[string]string{"op": "store"}); got != 1 {
		t.Errorf(`farm_errors_total{op="store"} = %d, want 1`, got)
	}
	var failure struct{ Op, Sweep, Cell string }
	if err := json.Unmarshal([]byte(logged.String()), &failure); err != nil {
		t.Fatalf("store failure log line %q: %v", logged.String(), err)
	}
	if want := (struct{ Op, Sweep, Cell string }{"store", putFailed.ID, "bfs-po/ghb-gdc"}); failure != want {
		t.Errorf("store failure logged %+v, want %+v", failure, want)
	}

	sweeps := []*Sweep{live, cached, canceled, putFailed}
	bytes := map[string]string{}
	statuses := map[string]string{}
	for _, sw := range sweeps {
		bytes[sw.ID] = string(sw.Log.Snapshot())
		statuses[sw.ID] = statusJSON(t, sw.Status())
		rebuilt, err := f.load(sw.ID)
		if err != nil || rebuilt == nil {
			t.Fatalf("load %s = %v, %v", sw.ID, rebuilt, err)
		}
		if got := string(rebuilt.Log.Snapshot()); got != bytes[sw.ID] {
			t.Errorf("%s: rebuilt stream differs:\nrebuilt: %q\nlive:    %q", sw.ID, got, bytes[sw.ID])
		}
		if got := statusJSON(t, rebuilt.Status()); got != statuses[sw.ID] {
			t.Errorf("%s: rebuilt status differs:\nrebuilt: %s\nlive:    %s", sw.ID, got, statuses[sw.ID])
		}
	}
	rec, err := f.journal.read(canceled.ID)
	if err != nil || len(rec.Stream) != 1 || rec.Stream[0].Line == "" {
		t.Fatalf("canceled sweep's journal record = %+v, %v; want its abort line inline", rec, err)
	}

	// Evict the four: RetainedSweeps cached sweeps finish after them.
	for i := 0; i < RetainedSweeps; i++ {
		startWait(quickSpec)
	}
	if n := len(f.List()); n != RetainedSweeps {
		t.Fatalf("farm lists %d sweeps, want %d", n, RetainedSweeps)
	}
	for _, sw := range sweeps {
		f.mu.Lock()
		_, retained := f.sweeps[sw.ID]
		f.mu.Unlock()
		if retained {
			t.Fatalf("%s still retained after %d newer sweeps", sw.ID, RetainedSweeps)
		}
		got, ok := f.Get(sw.ID)
		if !ok {
			t.Fatalf("evicted %s not served from the journal", sw.ID)
		}
		var buf strings.Builder
		if _, err := got.Log.Stream(context.Background(), &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != bytes[sw.ID] {
			t.Errorf("evicted %s streams %q, want %q", sw.ID, buf.String(), bytes[sw.ID])
		}
		if st := statusJSON(t, got.Status()); st != statuses[sw.ID] {
			t.Errorf("evicted %s status %s, want %s", sw.ID, st, statuses[sw.ID])
		}
		// DELETE on a finished sweep is a no-op, evicted or not.
		if err := f.Cancel(sw.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStartsOverlappingSpecs races sweeps whose cells overlap
// (run with -race): every sweep accounts for every cell, IDs are unique,
// the store ends up holding each cell once, and every journal rebuild is
// byte-identical to its live stream — including sweeps whose live line
// for a cell lost the store's first-write-wins race and so is journaled
// inline.
func TestConcurrentStartsOverlappingSpecs(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	f := mustNew(t, Config{Exp: quickCfg(2), Store: store, LogDir: dir})
	specs := []Spec{
		{Algos: []string{"bfs"}, Schemes: []string{"none", "prodigy"}},
		{Algos: []string{"bfs"}, Schemes: []string{"prodigy", "none"}},
		{Algos: []string{"bfs"}, Schemes: []string{"none"}},
		{Algos: []string{"bfs"}, Schemes: []string{"prodigy"}},
	}
	sweeps := make([]*Sweep, 2*len(specs))
	var wg sync.WaitGroup
	for i := range sweeps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw, err := f.Start(specs[i%len(specs)])
			if err != nil {
				t.Error(err)
				return
			}
			<-sw.Done()
			sweeps[i] = sw
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ids := map[string]bool{}
	for _, sw := range sweeps {
		if ids[sw.ID] {
			t.Fatalf("sweep ID %s assigned twice", sw.ID)
		}
		ids[sw.ID] = true
		st := sw.Status()
		if st.Cached+st.Simulated != st.Cells || st.Aborted != 0 || sw.Err() != nil {
			t.Fatalf("%s status = %+v (err %v)", sw.ID, st, sw.Err())
		}
		rebuilt, err := f.load(sw.ID)
		if err != nil || rebuilt == nil {
			t.Fatalf("load %s = %v, %v", sw.ID, rebuilt, err)
		}
		if got, want := string(rebuilt.Log.Snapshot()), string(sw.Log.Snapshot()); got != want {
			t.Errorf("%s: rebuilt stream differs:\nrebuilt: %q\nlive:    %q", sw.ID, got, want)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d cells, want 2", store.Len())
	}
}

// TestRetentionBoundsMemory serves N and then 10N all-cached sweeps: the
// farm must hold at most RetainedSweeps of them, and its live heap after
// runtime.GC() must not grow with the request count. What still grows is
// the journal index, about 80 B per sweep; the bound allows 200 B per
// extra sweep (0.9 MiB for the 9N = 4,608 extra sweeps here). Retaining
// every finished sweep instead costs about 1.1 KiB each (5 MiB here),
// even though their lines are shared with the store.
func TestRetentionBoundsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 5,120 sweeps")
	}
	dir := t.TempDir()
	store := openTestStore(t, dir)
	f := mustNew(t, Config{Exp: quickCfg(1), Store: store, LogDir: dir})
	spec := Spec{Algos: []string{"bfs"}, Schemes: []string{"none", "stride", "ghb-gdc", "imp", "aj", "droplet", "software-pf", "prodigy"}}
	seedStore(t, f, store, spec, 1024)
	serve := func(n int) {
		for i := 0; i < n; i++ {
			sw, err := f.Start(spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-sw.Done():
			default:
				t.Fatalf("all-cached sweep %s did not finish inside Start", sw.ID)
			}
			if _, err := sw.Log.Stream(context.Background(), io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = 2 * RetainedSweeps
	serve(n)
	before := heap()
	serve(9 * n)
	after := heap()
	if got := len(f.List()); got > RetainedSweeps {
		t.Fatalf("farm retains %d sweeps, want at most %d", got, RetainedSweeps)
	}
	const perSweep = 200
	t.Logf("live heap %d B after %d sweeps, %d B after %d", before, n, after, 10*n)
	if growth := int64(after) - int64(before); growth > perSweep*9*n {
		t.Fatalf("live heap grew %d B from %d to %d sweeps (bound %d B)", growth, n, 10*n, perSweep*9*n)
	}
	// The oldest sweep is still served, from the journal.
	if _, ok := f.Get("s001"); !ok {
		t.Fatal("s001 not served after eviction")
	}
}

// TestRestartContinuesIDs is the regression test for sweep IDs
// restarting at s001 after a restart: a new farm on the same cache
// directory continues after the journal's highest ID, and the previous
// process's sweeps stay readable with their original bytes and status.
func TestRestartContinuesIDs(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Exp: quickCfg(1), Store: store, LogDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, f, store, quickSpec, 0)
	var ids []string
	bytes := map[string]string{}
	statuses := map[string]string{}
	for i := 0; i < 2; i++ {
		sw, err := f.Start(quickSpec)
		if err != nil {
			t.Fatal(err)
		}
		<-sw.Done()
		ids = append(ids, sw.ID)
		bytes[sw.ID] = string(sw.Log.Snapshot())
		statuses[sw.ID] = statusJSON(t, sw.Status())
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openTestStore(t, dir)
	f2 := mustNew(t, Config{Exp: quickCfg(1), Store: store2, LogDir: dir})
	sw, err := f2.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	if sw.ID != "s003" {
		t.Fatalf("first sweep after restart is %s, want s003 (after %v)", sw.ID, ids)
	}
	for _, id := range ids {
		old, ok := f2.Get(id)
		if !ok {
			t.Fatalf("%s not readable after restart", id)
		}
		if got := string(old.Log.Snapshot()); got != bytes[id] {
			t.Errorf("%s after restart streams %q, want %q", id, got, bytes[id])
		}
		if got := statusJSON(t, old.Status()); got != statuses[id] {
			t.Errorf("%s after restart has status %s, want %s", id, got, statuses[id])
		}
	}
	if f2.JournalSkipped() != 0 {
		t.Errorf("clean journal reported %d skipped lines", f2.JournalSkipped())
	}
}

// TestJournalWriteFailureCounted closes the journal's file under the
// farm: the next sweep's record cannot be written, which must show up as
// farm_errors_total{op="journal"} while the sweep itself still finishes.
func TestJournalWriteFailureCounted(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	reg := telemetry.NewRegistry()
	f, err := New(Config{Exp: quickCfg(1), Store: store, LogDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, f, store, quickSpec, 0)
	if err := f.journal.f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapValue(t, reg, "farm_errors_total", map[string]string{"op": "journal"}); got != 0 {
		t.Fatalf(`farm_errors_total{op="journal"} = %d before any write`, got)
	}
	sw, err := f.Start(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	if st := sw.Status(); !st.Done || st.Cached != 2 {
		t.Fatalf("sweep status = %+v", st)
	}
	if got := snapValue(t, reg, "farm_errors_total", map[string]string{"op": "journal"}); got != 1 {
		t.Fatalf(`farm_errors_total{op="journal"} = %d, want 1`, got)
	}
	// The handle is already closed; Close reports exactly that.
	if err := f.Close(); err == nil {
		t.Error("closing an already-closed journal file reported no error")
	}
}

// journalPrefix is two valid journal records with inline lines (so no
// store is needed to serve them), as FuzzJournalLoad's fixed prefix.
func journalPrefix(t testing.TB) ([]byte, []journalRecord) {
	t.Helper()
	recs := []journalRecord{
		{Status: Status{ID: "s001", Cells: 1, Aborted: 1, Done: true, Canceled: true, Spec: quickSpec},
			Stream: []journalLine{{Line: `{"label":"bfs-po","scheme":"none","abort":"canceled"}`}}},
		{Status: Status{ID: "s002", Cells: 2, Simulated: 2, Done: true, ElapsedMS: 12.5, Spec: quickSpec},
			Stream: []journalLine{{Line: `{"label":"bfs-po","scheme":"prodigy","cycles":2}`}, {Line: `{"label":"bfs-po","scheme":"none","cycles":1,"note":"<&>"}`}}},
	}
	var out []byte
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out, recs
}

// FuzzJournalLoad boots a farm on arbitrary bytes appended to a journal
// of valid records: boot never fails or panics, the valid records ahead
// of the junk stay readable byte for byte, and IDs continue after them.
func FuzzJournalLoad(f *testing.F) {
	prefix, recs := journalPrefix(f)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(JournalPath(dir), append(append([]byte(nil), prefix...), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		fm, err := New(Config{Exp: quickCfg(1), LogDir: dir})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		defer func() {
			if err := fm.Close(); err != nil {
				t.Error(err)
			}
		}()
		if fm.nextID < len(recs) {
			t.Fatalf("next ID continues after s%03d, want after s%03d", fm.nextID, len(recs))
		}
		for _, rec := range recs {
			sw, ok := fm.Get(rec.Status.ID)
			if !ok {
				t.Fatalf("%s not readable", rec.Status.ID)
			}
			var want string
			for _, e := range rec.Stream {
				want += e.Line + "\n"
			}
			if got := string(sw.Log.Snapshot()); got != want {
				t.Fatalf("%s streams %q, want %q", rec.Status.ID, got, want)
			}
			if got := statusJSON(t, sw.Status()); got != statusJSON(t, rec.Status) {
				t.Fatalf("%s status %s, want %s", rec.Status.ID, got, statusJSON(t, rec.Status))
			}
		}
		// A record appended after boot lands on a line of its own and is
		// readable back.
		next := journalRecord{Status: Status{ID: fmt.Sprintf("s%03d", fm.nextID+1), Done: true, Spec: quickSpec},
			Stream: []journalLine{{Line: "x"}}}
		if err := fm.journal.append(&next); err != nil {
			t.Fatal(err)
		}
		got, err := fm.journal.read(next.Status.ID)
		if err != nil || got == nil || len(got.Stream) != 1 || got.Stream[0].Line != "x" {
			t.Fatalf("appended record reads back as %+v, %v", got, err)
		}
	})
}
