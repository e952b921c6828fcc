package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drive runs a small scripted workload against a recorder.
func drive(r *Recorder) {
	var now int64
	var missN uint64
	r.Start(2, []string{"busy", "dram"}, func() int64 { return now })
	// l1.miss is both a snapshot counter and a booked one.
	r.CounterFunc("l1.miss", func() uint64 { return missN })
	misses := r.Counter("l1.miss")
	fills := r.Counter("pf.fill")
	r.GaugeFunc("pfhr.free", func(cycle int64) float64 { return float64(cycle % 7) })

	// Interval = 100. Core 0: busy 0-150, dram 150-230, busy 230-260.
	r.StallSpan(0, 0, 0, 150)
	r.StallSpan(0, 1, 150, 230)
	r.StallSpan(0, 0, 230, 260)
	// Core 1: one long dram stall crossing both boundaries, then busy.
	r.StallSpan(1, 1, 0, 210)
	r.StallSpan(1, 0, 210, 260)

	now = 40
	missN += 3
	r.Snapshot()
	r.AddAt(fills, 120, 2)  // lands in interval 1
	r.AddAt(misses, 205, 1) // lands in interval 2
	now = 90
	r.Instant(0, "seq-start", "prodigy")
	r.FlowBegin(0, 7, "pf", "prefetch")
	now = 180
	r.FlowEnd(0, 7, "pf", "prefetch")

	r.Tick(100) // flushes interval 0
	r.Tick(260) // flushes interval 1
}

func runScript(t *testing.T) (metrics, trace string) {
	t.Helper()
	var mb, tb bytes.Buffer
	r := New(Options{Interval: 100, Metrics: &mb, Trace: &tb})
	drive(r)
	if err := r.Finish(260); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return mb.String(), tb.String()
}

func parseRows(t *testing.T, metrics string) []MetricsRow {
	t.Helper()
	var rows []MetricsRow
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		var row MetricsRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	return rows
}

func TestIntervalSplittingAndClamp(t *testing.T) {
	metrics, _ := runScript(t)
	rows := parseRows(t, metrics)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3:\n%s", len(rows), metrics)
	}
	wantCycles := []int64{100, 100, 60} // final interval clamped at 260
	wantCPI0 := []map[string]int64{
		{"busy": 100, "dram": 0},
		{"busy": 50, "dram": 50},
		{"busy": 30, "dram": 30},
	}
	wantMiss := []uint64{3, 0, 1}
	wantFill := []uint64{0, 2, 0}
	for i, row := range rows {
		if row.Interval != int64(i) {
			t.Errorf("row %d: interval=%d", i, row.Interval)
		}
		if row.Cycles != wantCycles[i] {
			t.Errorf("row %d: cycles=%d want %d", i, row.Cycles, wantCycles[i])
		}
		for class, want := range wantCPI0[i] {
			if got := row.CPI[0][class]; got != want {
				t.Errorf("row %d core 0 %s: got %d want %d", i, class, got, want)
			}
		}
		// Acceptance invariant: each core's CPI components sum to the
		// interval's cycles.
		for core, stack := range row.CPI {
			var sum int64
			for _, v := range stack {
				sum += v
			}
			if sum != row.Cycles {
				t.Errorf("row %d core %d: CPI sums to %d, cycles=%d", i, core, sum, row.Cycles)
			}
		}
		if row.Counters["l1.miss"] != wantMiss[i] || row.Counters["pf.fill"] != wantFill[i] {
			t.Errorf("row %d counters: %v", i, row.Counters)
		}
		if _, ok := row.Gauges["pfhr.free"]; !ok {
			t.Errorf("row %d: missing gauge", i)
		}
	}
	// Gauge of the clamped final interval samples at the finish cycle.
	if got := rows[2].Gauges["pfhr.free"]; got != float64(260%7) {
		t.Errorf("final gauge sampled at %v, want %v", got, float64(260%7))
	}
}

func TestTraceIsValidCatapultJSON(t *testing.T) {
	_, trace := runScript(t)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, trace)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	// Metadata (2 cores + process), coalesced X spans, instant, flow pair.
	if phases["M"] != 3 {
		t.Errorf("metadata events: %v", phases)
	}
	// Core 0 emits busy/dram/busy (3 spans), core 1 dram/busy (2).
	if phases["X"] != 5 {
		t.Errorf("X spans: got %d want 5 (%v)", phases["X"], phases)
	}
	if phases["i"] != 1 || phases["b"] != 1 || phases["e"] != 1 || phases["s"] != 1 || phases["f"] != 1 {
		t.Errorf("event mix: %v", phases)
	}
}

func TestSpanCoalescing(t *testing.T) {
	var tb bytes.Buffer
	r := New(Options{Interval: 100, Trace: &tb})
	r.Start(1, []string{"busy"}, func() int64 { return 0 })
	// Three abutting same-class chunks must merge into one span.
	r.StallSpan(0, 0, 0, 10)
	r.StallSpan(0, 0, 10, 25)
	r.StallSpan(0, 0, 25, 40)
	if err := r.Finish(40); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans []traceEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 1 || spans[0].Ts != 0 || spans[0].Dur != 40 {
		t.Fatalf("coalescing failed: %+v", spans)
	}
}

func TestDeterministicOutput(t *testing.T) {
	m1, t1 := runScript(t)
	m2, t2 := runScript(t)
	if m1 != m2 {
		t.Error("metrics JSONL differs between identical runs")
	}
	if t1 != t2 {
		t.Error("trace JSON differs between identical runs")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Start(4, []string{"a"}, nil)
	id := r.Counter("x")
	if id != -1 {
		t.Errorf("nil Counter = %d, want -1", id)
	}
	r.GaugeFunc("g", func(int64) float64 { return 0 })
	r.CounterFunc("y", func() uint64 { return 1 })
	r.TrackCounterFunc("z", func() uint64 { return 1 })
	r.Snapshot()
	r.AddAt(id, 50, 1)
	r.StallSpan(0, 0, 0, 10)
	r.Instant(0, "n", "c")
	r.FlowBegin(0, 1, "n", "c")
	r.FlowEnd(0, 1, "n", "c")
	r.Tick(100)
	if r.Interval() != 0 {
		t.Error("nil Interval() != 0")
	}
	if err := r.Finish(100); err != nil {
		t.Errorf("nil Finish: %v", err)
	}
}

func TestEmptyTraceStillValid(t *testing.T) {
	var tb bytes.Buffer
	r := New(Options{Trace: &tb})
	r.Start(1, nil, nil)
	if err := r.Finish(0); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, tb.String())
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestFinishSurfacesWriteErrors(t *testing.T) {
	r := New(Options{Interval: 10, Metrics: &failWriter{}})
	r.Start(1, []string{"busy"}, func() int64 { return 0 })
	r.StallSpan(0, 0, 0, 35)
	if err := r.Finish(35); err == nil {
		t.Fatal("Finish swallowed the write error")
	}
}

func TestOpenFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	metricsPath := filepath.Join(dir, "out.jsonl")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	r, closeFn, err := OpenFiles(tracePath, metricsPath, ledgerPath, 100)
	if err != nil {
		t.Fatal(err)
	}
	drive(r)
	r.PrefetchFill(1, 4096, 7, 90, 4, true)
	if err := r.Finish(260); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(traceBytes, &doc); err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	metricsBytes, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if rows := parseRows(t, string(metricsBytes)); len(rows) != 3 {
		t.Fatalf("got %d metric rows, want 3", len(rows))
	}

	ledgerBytes, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	const wantLedger = `{"Core":1,"LineAddr":4096,"IssuedAt":7,"FilledAt":90,"Level":4,"DemandMerged":true}` + "\n"
	if string(ledgerBytes) != wantLedger {
		t.Fatalf("ledger file = %q, want %q", ledgerBytes, wantLedger)
	}

	// Every path empty: fully disabled.
	r2, closeFn2, err := OpenFiles("", "", "", 0)
	if err != nil || r2 != nil {
		t.Fatalf("disabled path: r=%v err=%v", r2, err)
	}
	if err := closeFn2(); err != nil {
		t.Fatal(err)
	}
}

func TestLateCounterRegistrationRefused(t *testing.T) {
	var mb bytes.Buffer
	r := New(Options{Interval: 10, Metrics: &mb})
	r.Start(1, []string{"busy"}, func() int64 { return 0 })
	early := r.Counter("early")
	r.AddAt(early, 0, 1) // seals the registry
	if id := r.Counter("late"); id != -1 {
		t.Errorf("late registration returned %d, want -1", id)
	}
	if id := r.Counter("early"); id != early {
		t.Errorf("re-fetch of existing counter returned %d, want %d", id, early)
	}
	r.CounterFunc("late", func() uint64 { return 1 })
	if len(r.sources) != 0 {
		t.Errorf("late CounterFunc registered %d sources, want 0", len(r.sources))
	}
}
