package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"prodigy/internal/exp"
)

// The self-test runs every workload at tiny scale and checks that the
// output checks bite. Run it from this directory: go test ./...

func TestMain(m *testing.M) {
	// Set-up timing re-executes the running binary with -setup-only; in a
	// test binary that lands here.
	if slices.Contains(os.Args[1:], "-setup-only") {
		main()
		return
	}
	code := m.Run()
	if serveDir != "" {
		os.RemoveAll(serveDir)
	}
	os.Exit(code)
}

var (
	serveOnce sync.Once
	serveDir  string
	serveErr  error
)

// serveBinary builds prodigy-serve once for the whole test binary.
func serveBinary(t *testing.T) string {
	t.Helper()
	serveOnce.Do(func() {
		if serveDir, serveErr = os.MkdirTemp("", "perfbench-serve-"); serveErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", serveDir, "prodigy/cmd/prodigy-serve").CombinedOutput()
		if err != nil {
			serveErr = fmt.Errorf("building prodigy-serve: %w\n%s", err, out)
		}
	})
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	return filepath.Join(serveDir, "prodigy-serve")
}

// benchmarkSpec reads the metric lists from BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	index := func(ms []m) map[string]string {
		out := map[string]string{}
		for _, x := range ms {
			out[x.Name] = x.Unit
		}
		return out
	}
	return index(spec.EndToEnd), index(spec.PerLayer)
}

// TestTinyWorkloads runs each workload, untraced and traced, at tiny
// scale: no operation may fail, and every metric BENCHMARK.json names
// must be reported with its unit.
func TestTinyWorkloads(t *testing.T) {
	e2e, layer := benchmarkSpec(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			want := e2e
			if traced {
				name, want = w+"/traced", layer
			}
			t.Run(name, func(t *testing.T) {
				o := opts{workload: w, seed: 7, seconds: 0.5, trace: traced, tiny: true, work: t.TempDir()}
				if w == "serve-replay" {
					o.serveBin = serveBinary(t)
				}
				res, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					got, ok := res.Metrics[n]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", n, got, unit)
					}
				}
				for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
					t.Logf("%-28s %-8s %v", n, res.Metrics[n].Unit, res.Metrics[n].Value)
				}
				if traced {
					checkLayerIdentities(t, w, res.Metrics)
				}
			})
		}
	}
}

// checkLayerIdentities checks the relations the traced run promises.
func checkLayerIdentities(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	var shares float64
	for n, v := range m {
		if strings.HasPrefix(n, "host_share.") {
			shares += v.Value
		}
	}
	if math.Abs(shares-100) > 0.01 {
		t.Errorf("host_share.* sums to %v, want 100", shares)
	}
	if workload == "serve-replay" {
		return
	}
	run, drain, self := m["sim.run_s"].Value, m["trace.drain_s"].Value, m["sim.engine_self_s"].Value
	if math.Abs(drain+self-run) > 1e-9 {
		t.Errorf("trace.drain_s %v + sim.engine_self_s %v != sim.run_s %v", drain, self, run)
	}
	if m["cpu.ipc"].Value <= 0 || m["trace.entries_per_inst"].Value <= 0 {
		t.Errorf("simulated counters missing: ipc %v, entries/inst %v", m["cpu.ipc"].Value, m["trace.entries_per_inst"].Value)
	}
	if workload == "paper-none" && m["pf.issued_per_kinst"].Value != 0 {
		t.Errorf("paper-none issued prefetches: %v per kinst", m["pf.issued_per_kinst"].Value)
	}
	if workload == "paper-prodigy" && m["pf.issued_per_kinst"].Value == 0 {
		t.Error("paper-prodigy issued no prefetches")
	}
}

// TestTamperedCyclesCounted checks that a cell whose simulated cycles
// differ from the record is counted as a failure, not ignored or fatal.
func TestTamperedCyclesCounted(t *testing.T) {
	want, err := loadExpected(true)
	if err != nil {
		t.Fatal(err)
	}
	cells := paperCells(exp.SchemeNone)
	key := cellKey(cells[3])
	c := want[key]
	c.Cycles++
	want[key] = c
	p := runGridPass(paperConfig(true), cells, want)
	if p.failures != 1 {
		t.Fatalf("tampered %s: %d failures, want 1", key, p.failures)
	}
	if p.runs[3] != nil {
		t.Error("the tampered cell's run was kept")
	}
}

// TestTamperedReplayBodyCounted checks that a replay whose body differs
// from the cold sweep's lines — one flipped byte, or one line missing —
// is counted as a failure.
func TestTamperedReplayBodyCounted(t *testing.T) {
	o := opts{tiny: true, serveBin: serveBinary(t), work: t.TempDir()}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	srv, cold, _, err := setUpServer(o, client, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	rs, err := makeReplays(rand.New(rand.NewPCG(1, 2)), 20, cold)
	if err != nil {
		t.Fatal(err)
	}
	var clean tally
	runReplays(client, srv.url, rs, &clean)
	if clean.failed != 0 {
		t.Fatalf("untampered replays: %d of %d failed", clean.failed, clean.attempted)
	}

	flipped := slices.Clone(rs[0].want)
	flipped[len(flipped)/2] ^= 1
	rs[0].want = flipped
	rs[1].want = rs[1].want[:len(rs[1].want)-1]
	var tampered tally
	runReplays(client, srv.url, rs, &tampered)
	if tampered.attempted != 20 || tampered.failed != 2 {
		t.Fatalf("tampered replays: %d of %d failed, want 2 of 20", tampered.failed, tampered.attempted)
	}
}

func TestShareBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"prodigy/internal/cache.(*Hierarchy).Access":    "cache",
		"prodigy/internal/exp/farm.(*Farm).Submit":      "exp",
		"prodigy/internal/stats.(*Meter).Done":          "other",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKey":       "runtime",
		"internal/runtime/syscall.Syscall6":             "syscall",
		"net/http.(*conn).serve":                        "other",
		"main.runGridPass":                              "other",
		"prodigy/internal/trace.(*Reader).Next":         "trace",
		"prodigy/internal/sim.(*Machine).Run.func1":     "sim",
		"slices.SortFunc[go.shape.struct { a int }]":    "other",
		"slices.Sort[prodigy/internal/exp.Cell]":        "other",
		"prodigy/internal/core.(*Prodigy).requestElems": "core",
	} {
		if got := shareBucket(fn); got != want {
			t.Errorf("shareBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}
