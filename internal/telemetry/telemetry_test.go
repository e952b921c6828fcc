package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// ladder is the full `le` bound ladder the exposition must emit, pinned
// explicitly so an accidental stats.Histogram layout change surfaces
// here and not in a scrape consumer.
func ladder() []string {
	out := []string{"0"}
	for b := int64(1); b <= 256; b <<= 1 {
		out = append(out, fmt.Sprint(b))
	}
	out = append(out, "511")
	for lo := int64(512); lo <= 512<<22; lo <<= 1 {
		out = append(out, fmt.Sprint(2*lo-1))
	}
	return append(out, "+Inf")
}

// TestPrometheusGolden pins the exposition format byte-for-byte: HELP
// and TYPE headers, sorted family and label order, escaped label
// values, and the histogram bucket ladder with cumulative counts.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("farm_cells_total", "Cells completed by state.", "state", "simulated").Add(3)
	r.Counter("farm_cells_total", "Cells completed by state.", "state", "cached").Add(2)
	r.Gauge("farm_queue_depth", "Cells accepted but not yet running.").Set(7)
	h := r.Histogram("cell_wall_us", "Cell wall clock.", "scheme", "prodigy", "algo", "bfs")
	h.Observe(3)
	h.Observe(700)

	var want strings.Builder
	want.WriteString("# HELP cell_wall_us Cell wall clock.\n")
	want.WriteString("# TYPE cell_wall_us histogram\n")
	for _, le := range ladder() {
		cum := 0
		// Samples 3 and 700 land exactly at their first covering bound
		// because every bound is a bucket upper edge.
		if le == "+Inf" {
			cum = 2
		} else {
			var b int64
			fmt.Sscan(le, &b)
			if b >= 3 {
				cum = 1
			}
			if b >= 700 {
				cum = 2
			}
		}
		fmt.Fprintf(&want, "cell_wall_us_bucket{algo=\"bfs\",scheme=\"prodigy\",le=%q} %d\n", le, cum)
	}
	want.WriteString("cell_wall_us_sum{algo=\"bfs\",scheme=\"prodigy\"} 703\n")
	want.WriteString("cell_wall_us_count{algo=\"bfs\",scheme=\"prodigy\"} 2\n")
	want.WriteString("# HELP farm_cells_total Cells completed by state.\n")
	want.WriteString("# TYPE farm_cells_total counter\n")
	want.WriteString("farm_cells_total{state=\"cached\"} 2\n")
	want.WriteString("farm_cells_total{state=\"simulated\"} 3\n")
	want.WriteString("# HELP farm_queue_depth Cells accepted but not yet running.\n")
	want.WriteString("# TYPE farm_queue_depth gauge\n")
	want.WriteString("farm_queue_depth 7\n")

	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got.String(), want.String())
	}

	// A second write over unchanged values must be byte-identical.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Error("repeated exposition of unchanged registry differs")
	}
}

// TestLabelEscaping pins quoting of label values containing the three
// characters the text format escapes.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "k", "a\"b\\c\nd").Inc()
	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE c_total counter\nc_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"
	if got.String() != want {
		t.Errorf("escaped exposition = %q, want %q", got.String(), want)
	}
}

// TestSnapshotJSON checks the /varz reduction: kinds, label maps, and
// histogram summary fields.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "Requests.", "route", "/sweeps").Add(5)
	r.Gauge("inflight", "").Add(2)
	h := r.Histogram("dur_us", "")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap []FamilySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("varz body is not JSON: %v\n%s", err, buf.String())
	}
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d families, want 3", len(snap))
	}
	if snap[0].Name != "dur_us" || snap[1].Name != "inflight" || snap[2].Name != "reqs_total" {
		t.Fatalf("families out of order: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	hist := snap[0].Samples[0].Hist
	if hist == nil || hist.Count != 100 || hist.Sum != 5050 || hist.Max != 100 || hist.P50 != 50 {
		t.Errorf("histogram snapshot = %+v", hist)
	}
	if v := snap[2].Samples[0]; v.Value == nil || *v.Value != 5 || v.Labels["route"] != "/sweeps" {
		t.Errorf("counter sample = %+v", v)
	}
}

// TestNilSafety exercises every metric method and both writers on nil
// receivers: optional instrumentation sites must not need guards.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.Counter("c", "").Add(2)
	r.Gauge("g", "").Set(1)
	r.Gauge("g", "").Add(-1)
	r.Histogram("h", "").Observe(9)
	if got := r.Counter("c", "").Value(); got != 0 {
		t.Errorf("nil counter Value = %d", got)
	}
	if got := r.Gauge("g", "").Value(); got != 0 {
		t.Errorf("nil gauge Value = %d", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus = %v, %q", err, buf.String())
	}
	if r.Snapshot() != nil {
		t.Error("nil Snapshot is non-nil")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// re-resolving metrics by name, writing counters/gauges/histograms, and
// scraping both formats mid-flight — and verifies the final totals.
// Run under -race this is the registry's concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("ops_total", "Ops.", "worker", fmt.Sprint(g%2)).Inc()
				r.Gauge("depth", "").Add(1)
				r.Histogram("lat_us", "").Observe(int64(i % 600))
				r.Gauge("depth", "").Add(-1)
			}
		}(g)
	}
	// Concurrent scrapers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("concurrent WritePrometheus: %v", err)
				}
				if err := r.WriteJSON(&buf); err != nil {
					t.Errorf("concurrent WriteJSON: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	var total uint64
	for _, w := range []string{"0", "1"} {
		total += r.Counter("ops_total", "", "worker", w).Value()
	}
	if want := uint64(goroutines * perG); total != want {
		t.Errorf("ops_total = %d, want %d", total, want)
	}
	if d := r.Gauge("depth", "").Value(); d != 0 {
		t.Errorf("depth settled at %d, want 0", d)
	}
	hs := r.Histogram("lat_us", "").snapshot()
	if n := hs.Total(); n != goroutines*perG {
		t.Errorf("lat_us count = %d, want %d", n, goroutines*perG)
	}
}

// TestChildLookupAllocatesNothing pins that re-resolving an existing
// labeled child, as a per-event call site does, allocates nothing.
func TestChildLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	route := "POST /sweeps"
	r.Counter("http_responses_total", "", "route", route, "class", "2xx")
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("http_responses_total", "", "route", route, "class", "2xx").Inc()
	})
	if allocs != 0 {
		t.Fatalf("re-resolving a child allocates %v times, want 0", allocs)
	}
	// 101: AllocsPerRun makes one warm-up call.
	if got := r.Counter("http_responses_total", "", "class", "2xx", "route", route).Value(); got != 101 {
		t.Fatalf("counter = %d, want 101: the lookup missed the existing child", got)
	}
}

// TestKindConflictPanics pins the programmer-error contract.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}
