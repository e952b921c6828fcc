package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"prodigy/internal/obs"
	"prodigy/internal/sim"
)

// obsHarness builds a quick single-cell harness whose Config.Obs factory
// records every cell into fresh buffers, returning the buffers keyed by
// cell name.
func obsHarness(interval int64) (*Harness, map[string]*bytes.Buffer, map[string]*bytes.Buffer) {
	traces := map[string]*bytes.Buffer{}
	metrics := map[string]*bytes.Buffer{}
	cfg := goldenCfg(1)
	cfg.Obs = func(cell string) (*obs.Recorder, func() error, error) {
		tb, mb := &bytes.Buffer{}, &bytes.Buffer{}
		traces[cell], metrics[cell] = tb, mb
		r := obs.New(obs.Options{Interval: interval, Trace: tb, Metrics: mb})
		return r, func() error { return nil }, nil
	}
	return New(cfg), traces, metrics
}

// TestObsPassThroughEmitsCatapultTrace runs one instrumented BFS cell and
// schema-checks the trace: it must parse as a catapult JSON object whose
// traceEvents carry the metadata, span, and flow phases the viewer needs.
func TestObsPassThroughEmitsCatapultTrace(t *testing.T) {
	h, traces, metrics := obsHarness(1000)
	r, err := h.RunOne("bfs", "po", SchemeProdigy)
	if err != nil {
		t.Fatal(err)
	}
	tb, ok := traces["bfs-po.prodigy"]
	if !ok {
		t.Fatalf("no trace buffer for cell; cells seen: %v", keys(traces))
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid catapult JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["ts"].(float64); !ok && ph != "M" {
			t.Fatalf("event missing ts: %v", ev)
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 {
		t.Fatalf("trace lacks metadata/span events: %v", phases)
	}
	// Prodigy issues prefetches on this workload, so flow pairs must appear.
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("no prefetch flow events: %v", phases)
	}

	// Interval metrics: every row's per-core CPI components sum to the
	// row's cycle count, and the final row covers the tail.
	rows := metricsRows(t, metrics["bfs-po.prodigy"])
	if len(rows) == 0 {
		t.Fatal("no metrics rows emitted")
	}
	var covered int64
	for _, row := range rows {
		for core, stack := range row.CPI {
			var sum int64
			for _, v := range stack {
				sum += v
			}
			if sum != row.Cycles {
				t.Fatalf("interval %d core %d: CPI sums to %d, want %d",
					row.Interval, core, sum, row.Cycles)
			}
		}
		covered += row.Cycles
	}
	if covered != r.Res.Cycles {
		t.Errorf("metrics cover %d cycles, run took %d", covered, r.Res.Cycles)
	}
}

// TestObsDoesNotPerturbSimulation checks an instrumented run retires the
// same work in the same number of simulated cycles as an uninstrumented
// one: observability is read-only.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	plain := New(goldenCfg(1))
	want, err := plain.RunOne("bfs", "po", SchemeProdigy)
	if err != nil {
		t.Fatal(err)
	}
	h, _, _ := obsHarness(500)
	got, err := h.RunOne("bfs", "po", SchemeProdigy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Res.Cycles != want.Res.Cycles || got.Res.Agg.Retired != want.Res.Agg.Retired {
		t.Errorf("instrumented run diverged: cycles %d vs %d, retired %d vs %d",
			got.Res.Cycles, want.Res.Cycles, got.Res.Agg.Retired, want.Res.Agg.Retired)
	}
}

// TestObsMetricsDeterministic runs the same instrumented cell twice on
// fresh harnesses; the metrics JSONL and trace must be byte-identical.
func TestObsMetricsDeterministic(t *testing.T) {
	grab := func() (string, string) {
		h, traces, metrics := obsHarness(1000)
		if _, err := h.RunOne("bfs", "po", SchemeProdigy); err != nil {
			t.Fatal(err)
		}
		return traces["bfs-po.prodigy"].String(), metrics["bfs-po.prodigy"].String()
	}
	t1, m1 := grab()
	t2, m2 := grab()
	if m1 != m2 {
		t.Error("metrics JSONL differs between identical runs")
	}
	if t1 != t2 {
		t.Error("trace JSON differs between identical runs")
	}
}

// TestObsAbortedRunFlushes: a run killed by the MaxCycles guard must
// still leave a valid (closed) catapult trace and parseable metrics rows
// behind — the abort path flushes the recorder before surfacing the
// error, so partial observability output is never truncated mid-record.
func TestObsAbortedRunFlushes(t *testing.T) {
	h, traces, metrics := obsHarness(100)
	h.Cfg.MaxCycles = 1000 // far below what the workload needs
	_, err := h.RunOne("bfs", "po", SchemeProdigy)
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	tb, ok := traces["bfs-po.prodigy"]
	if !ok {
		t.Fatalf("no trace buffer; cells seen: %v", keys(traces))
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("aborted run's trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("aborted run's trace has no events")
	}
	rows := metricsRows(t, metrics["bfs-po.prodigy"])
	if len(rows) == 0 {
		t.Fatal("aborted run emitted no metrics rows")
	}
	for _, row := range rows {
		if row.End <= row.Start {
			t.Fatalf("malformed interval row: %+v", row)
		}
	}
	pinObsBytes(t, "aborted metrics", metrics["bfs-po.prodigy"].Bytes(), len(rows),
		pinnedAbortMetricsRows, pinnedAbortMetricsSHA256)
	pinObsBytes(t, "aborted trace", tb.Bytes(), len(doc.TraceEvents),
		pinnedAbortTraceEvents, pinnedAbortTraceSHA256)
}

// Pinned observability output of the quick bfs-po Prodigy cell (2 cores)
// at interval 100: metrics rows, trace events and the SHA-256 of each
// file's bytes, for the completed cell and for the one TestObsAbortedRunFlushes
// stops at MaxCycles 1000.
const (
	pinnedMetricsRows   = 43
	pinnedMetricsSHA256 = "c2c35dffbd1c1d4acaa8f7feb9109b527aa2a80354815f9c6d7d9af301112911"
	pinnedTraceEvents   = 12030
	pinnedTraceSHA256   = "27d37db125d587cdd3d233b69210551ac2d6987ed4b0500aaa87f133749d237e"

	pinnedAbortMetricsRows   = 11
	pinnedAbortMetricsSHA256 = "217776d7cd916c1f4b95773072f5fedfd477f163ea3f7af29b64ffb912310a7d"
	pinnedAbortTraceEvents   = 1318
	pinnedAbortTraceSHA256   = "4a8deec90b2dfc997f0655595a506a1e46715418e8f638bfc54c2b664f779b5a"
)

// pinObsBytes compares one observability file against its pinned record
// count and SHA-256.
func pinObsBytes(t *testing.T, what string, b []byte, records, wantRecords int, wantSHA string) {
	t.Helper()
	sum := sha256.Sum256(b)
	if records != wantRecords || hex.EncodeToString(sum[:]) != wantSHA {
		t.Errorf("%s = %d records, sha256 %x; pinned %d records, sha256 %s",
			what, records, sum, wantRecords, wantSHA)
	}
}

// TestObsBytesPinned pins the metrics JSONL and the trace of one quick
// Prodigy cell at a 100-cycle interval. Two cores exercise the per-core
// Prodigy counters, and the short interval makes DRAM-bound wakeups leap
// over many boundaries.
func TestObsBytesPinned(t *testing.T) {
	h, traces, metrics := obsHarness(100)
	if _, err := h.RunOne("bfs", "po", SchemeProdigy); err != nil {
		t.Fatal(err)
	}
	tb, mb := traces["bfs-po.prodigy"], metrics["bfs-po.prodigy"]
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pinObsBytes(t, "metrics", mb.Bytes(), len(metricsRows(t, mb)), pinnedMetricsRows, pinnedMetricsSHA256)
	pinObsBytes(t, "trace", tb.Bytes(), len(doc.TraceEvents), pinnedTraceEvents, pinnedTraceSHA256)
}

// TestAbortedRunReportsObsCloseError: a cell aborted by the MaxCycles
// guard whose observability output then fails to close must report both
// failures, not just the abort; otherwise the lost file goes unnoticed.
func TestAbortedRunReportsObsCloseError(t *testing.T) {
	closeErr := errors.New("flush failed")
	cfg := goldenCfg(1)
	cfg.MaxCycles = 1000
	cfg.Obs = func(string) (*obs.Recorder, func() error, error) {
		return obs.New(obs.Options{Metrics: io.Discard}), func() error { return closeErr }, nil
	}
	_, err := New(cfg).RunOne("bfs", "po", SchemeProdigy)
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("err = %v, want it to carry the close error", err)
	}
}

// TestJSONLogCarriesPrefetchQuality: the runner's JSONL must carry the pf
// block for prefetching schemes (with sane ratio bounds) and omit it for
// the no-prefetch baseline.
func TestJSONLogCarriesPrefetchQuality(t *testing.T) {
	var log bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &log
	h := New(cfg)
	if _, err := h.RunOne("bfs", "po", SchemeProdigy); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunOne("bfs", "po", SchemeNone); err != nil {
		t.Fatal(err)
	}
	var summaries []RunSummary
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var s RunSummary
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		summaries = append(summaries, s)
	}
	if len(summaries) != 2 {
		t.Fatalf("summaries = %d, want 2", len(summaries))
	}
	bySch := map[string]RunSummary{}
	for _, s := range summaries {
		bySch[s.Scheme] = s
	}
	pf := bySch["prodigy"].PF
	if pf == nil {
		t.Fatal("prodigy summary lacks pf block")
	}
	if pf.Issued == 0 || pf.Fills == 0 {
		t.Fatalf("pf counts empty: %+v", pf)
	}
	for _, v := range []float64{pf.Accuracy, pf.Coverage, pf.Timeliness} {
		if v < 0 || v > 1 {
			t.Fatalf("ratio out of [0,1]: %+v", pf)
		}
	}
	if bySch["none"].PF != nil {
		t.Fatalf("no-prefetch baseline has pf block: %+v", bySch["none"].PF)
	}
}

// metricsRows parses a metrics JSONL buffer.
func metricsRows(t *testing.T, b *bytes.Buffer) []obs.MetricsRow {
	t.Helper()
	var rows []obs.MetricsRow
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var row obs.MetricsRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	return rows
}

func keys(m map[string]*bytes.Buffer) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
