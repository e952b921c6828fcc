package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// runIrregular executes the irregular workload once under Prodigy,
// letting observe (when non-nil) attach observers, and returns the result.
func runIrregular(t testing.TB, n int, observe func(*Config)) Result {
	space, idx, data, d := irregularSetup(t, n)
	cfg := Default(1)
	cfg.Prefetcher = core.New(d, core.DefaultConfig())
	if observe != nil {
		observe(&cfg)
	}
	res, err := Run(cfg, space, trace.NewGen(1, 0), irregularWorkload(idx, data))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runStride executes a two-core forward-then-backward sweep under the
// stride prefetcher, letting observe (when non-nil) attach observers.
func runStride(t testing.TB, observe func(*Config)) Result {
	space := memspace.New()
	arr := space.AllocU32("a", 2048)
	cfg := Default(2)
	cfg.Prefetcher = prefetch.Stride(prefetch.StrideConfig{Degree: 4, TableSize: 64})
	if observe != nil {
		observe(&cfg)
	}
	res, err := Run(cfg, space, trace.NewGen(2, 0), func(g *trace.Gen) {
		for i := range arr.Data {
			g.Load(i%2, 1, arr.Addr(i))
		}
		g.Barrier()
		for i := range arr.Data {
			g.Load(i%2, 2, arr.Addr(len(arr.Data)-1-i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObsOnDoesNotChangeResult checks every observer is purely
// observational: with the miss hook, a recorder keeping only the latency
// histogram, a ledger, or trace, metrics and ledger together, the run's
// Result is exactly the unobserved one's. Each observer must also have
// seen something, or the comparison proves nothing.
func TestObsOnDoesNotChangeResult(t *testing.T) {
	workloads := []struct {
		name string
		run  func(t testing.TB, observe func(*Config)) Result
	}{
		{"stride", runStride},
		{"prodigy", func(t testing.TB, observe func(*Config)) Result { return runIrregular(t, 1<<13, observe) }},
	}
	for _, w := range workloads {
		base := w.run(t, nil)
		var misses int
		var traceBuf, metricsBuf, ledgerBuf, allLedgerBuf bytes.Buffer
		latency := obs.New(obs.Options{})
		observers := []struct {
			name   string
			attach func(*Config)
			saw    func() bool
		}{
			{"miss-hook", func(c *Config) { c.MissHook = func(uint64) { misses++ } },
				func() bool { return misses > 0 }},
			{"latency", func(c *Config) { c.Obs = latency },
				func() bool { return latency.Latencies().Total() > 0 }},
			{"ledger", func(c *Config) { c.Obs = obs.New(obs.Options{Ledger: &ledgerBuf}) },
				func() bool { return ledgerBuf.Len() > 0 }},
			{"trace+metrics+ledger", func(c *Config) {
				c.Obs = obs.New(obs.Options{Interval: 1000, Trace: &traceBuf, Metrics: &metricsBuf, Ledger: &allLedgerBuf})
			}, func() bool { return traceBuf.Len() > 0 && metricsBuf.Len() > 0 && allLedgerBuf.Len() > 0 }},
		}
		for _, o := range observers {
			t.Run(w.name+"/"+o.name, func(t *testing.T) {
				if got := w.run(t, o.attach); !reflect.DeepEqual(got, base) {
					t.Errorf("observed run diverged:\n got  %+v\n want %+v", got, base)
				}
				if !o.saw() {
					t.Error("observer saw nothing")
				}
			})
		}
	}
}

// errWriter fails every write with errDiskFull.
type errWriter struct{}

var errDiskFull = errors.New("disk full")

func (errWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestAbortReportsObsExportError: a run stopped by MaxCycles whose
// recorder cannot write its output must report the write failure next to
// the abort cause, as a completed run does.
func TestAbortReportsObsExportError(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.MaxCycles = 2000
	cfg.Obs = obs.New(obs.Options{Interval: 100, Metrics: errWriter{}})
	_, err := Run(cfg, space, trace.NewGen(1, 0), seqWorkload(arr))
	if !errors.Is(err, ErrMaxCycles) || !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want ErrMaxCycles and the write error", err)
	}
}

// quickConfig is the quick experiment machine without a prefetcher: two
// cores and a 1/4/16 KiB hierarchy.
func quickConfig() Config {
	cfg := Default(2)
	cfg.Cache = cache.Config{
		Cores: 2, LineSize: 64,
		L1Size: 1 << 10, L1Assoc: 4,
		L2Size: 4 << 10, L2Assoc: 8,
		L3Size: 16 << 10, L3Assoc: 16,
		L1Lat: 2, L2Lat: 6, L3Lat: 30,
	}
	return cfg
}

// runQuickCell runs one workload under Prodigy on the quick experiment
// machine at the tiny graph scale. mshrs, when non-zero, caps each
// core's in-flight prefetches.
func runQuickCell(t testing.TB, algo, dataset string, mshrs int, observe func(*Config)) Result {
	w, err := workloads.Build(algo, dataset, 2, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Prefetcher = core.New(w.DIG, core.DefaultConfig())
	cfg.PrefetchMSHRs = mshrs
	observe(&cfg)
	res, err := Run(cfg, w.Space, trace.NewGen(2, 0), w.Run)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// counterTwins maps every interval counter a run emits to the Result
// statistic that counts the same events.
func counterTwins(res Result) map[string]uint64 {
	c, s, d := res.Cache, res.Sim, res.DRAM
	twins := map[string]uint64{
		"cache.demand":            c.DemandAccesses,
		"cache.l1_hit":            c.DemandL1Hits,
		"cache.l2_hit":            c.DemandL2Hits,
		"cache.l3_hit":            c.DemandL3Hits,
		"cache.mem":               c.DemandMem,
		"cache.pf_fill":           c.PrefetchFills,
		"cache.writeback":         c.Writebacks,
		"cache.pf_timely":         c.PrefetchL1Hits + c.PrefetchL2Hits + c.PrefetchL3Hits,
		"cache.pf_evicted_unused": c.PrefetchEvicted,
		"sim.pf_issued":           s.PrefetchIssued,
		"sim.late_merge":          s.LateMerges,
		"sim.pf_mshr_full":        s.PrefetchMSHRFull,
		"sim.pf_redundant":        s.PrefetchMergedResident,
		"dram.reads":              d.Requests,
		"dram.writes":             d.Writes,
		"dram.busy_cycles":        d.BusyCycles,
		"dram.queue_delay":        d.TotalQueueDelay,
	}
	for _, ss := range res.SchemeStats {
		if ps, ok := ss.(core.Stats); ok {
			twins["prodigy.seq_started"] += ps.SeqStarted
			twins["prodigy.seq_dropped"] += ps.SeqDropped
			twins["prodigy.pfhr_full"] += ps.PFHRFull
		}
	}
	return twins
}

// TestObsCountersMatchResultStats cross-checks the interval counters
// against the simulator's own aggregate statistics: every counter summed
// over the rows must equal the statistic that counts the same events
// (counterTwins), the run must emit exactly those counters, and each
// core's per-interval CPI slices must add up to the run's cycles. The
// workloads together drive every counter but dram.writes above zero:
// cache writebacks never reach the DRAM model.
func TestObsCountersMatchResultStats(t *testing.T) {
	runs := []struct {
		name string
		run  func(observe func(*Config)) Result
	}{
		{"irregular-1core", func(o func(*Config)) Result { return runIrregular(t, 1<<12, o) }},
		{"stride-2core", func(o func(*Config)) Result { return runStride(t, o) }},
		{"bfs-po", func(o func(*Config)) Result { return runQuickCell(t, "bfs", "po", 0, o) }},
		{"pr-lj", func(o func(*Config)) Result { return runQuickCell(t, "pr", "lj", 0, o) }},
		{"bfs-po-2mshr", func(o func(*Config)) Result { return runQuickCell(t, "bfs", "po", 2, o) }},
	}
	seen := map[string]bool{}
	var twins map[string]uint64
	for _, r := range runs {
		var metrics bytes.Buffer
		rec := obs.New(obs.Options{Interval: 500, Metrics: &metrics})
		res := r.run(func(c *Config) { c.Obs = rec })

		sums := map[string]uint64{}
		var attributed int64
		for _, line := range bytes.Split(bytes.TrimSpace(metrics.Bytes()), []byte("\n")) {
			var row obs.MetricsRow
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("%s: bad metrics row %q: %v", r.name, line, err)
			}
			for name, v := range row.Counters {
				sums[name] += v
			}
			for _, stack := range row.CPI {
				for _, v := range stack {
					attributed += v
				}
			}
		}
		twins = counterTwins(res)
		for name := range sums {
			if _, ok := twins[name]; !ok {
				t.Errorf("%s: emitted counter %q has no twin", r.name, name)
			}
		}
		for name, want := range twins {
			got, ok := sums[name]
			if !ok {
				t.Errorf("%s: counter %q not emitted", r.name, name)
			}
			if got != want {
				t.Errorf("%s: summed %s = %d, Result says %d", r.name, name, got, want)
			}
			if got > 0 {
				seen[name] = true
			}
		}
		if want := res.Cycles * int64(len(res.Stacks)); attributed != want {
			t.Errorf("%s: interval CPI slices cover %d core-cycles, want %d", r.name, attributed, want)
		}
	}
	for name := range twins {
		if !seen[name] && name != "dram.writes" {
			t.Errorf("no workload drives %s above zero", name)
		}
	}
}

// TestIntervalBoundariesExactAcrossSkips pins the interval-metrics
// contract under the wakeup scheduler: a DRAM-bound single-core run leaps
// hundreds of cycles per wakeup, so one scheduling step routinely crosses
// several 50-cycle interval boundaries at once. The rows the recorder
// emits must still sit on the exact fixed grid — interval i covers
// [i*50, (i+1)*50), with only the final row clamped at the run's end — and
// each row's per-core CPI slice must account for every cycle of its
// interval. Before the pre-flush attribution sweep in Run this failed:
// a sleeping core's stall time was attributed only at its next step, so
// rows flushed mid-sleep under-counted and later rows over-counted.
func TestIntervalBoundariesExactAcrossSkips(t *testing.T) {
	const interval = 50
	var metrics bytes.Buffer
	rec := obs.New(obs.Options{Interval: interval, Metrics: &metrics})
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.Obs = rec
	res, err := Run(cfg, space, trace.NewGen(1, 0), func(g *trace.Gen) {
		// One load per cache line: every access is a fresh DRAM miss, so
		// the core sleeps for the full memory latency between wakeups.
		for i := 0; i < len(arr.Data); i += 16 {
			g.Load(0, 1, arr.Addr(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 4*interval {
		t.Fatalf("run too short (%d cycles) to cross multiple boundaries", res.Cycles)
	}

	var rows []obs.MetricsRow
	for _, line := range bytes.Split(bytes.TrimSpace(metrics.Bytes()), []byte("\n")) {
		var row obs.MetricsRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad metrics row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	wantRows := (res.Cycles + interval - 1) / interval
	if int64(len(rows)) != wantRows {
		t.Fatalf("got %d interval rows for a %d-cycle run, want %d", len(rows), res.Cycles, wantRows)
	}
	for i, row := range rows {
		if row.Interval != int64(i) {
			t.Fatalf("row %d has interval index %d", i, row.Interval)
		}
		if row.Start != int64(i)*interval {
			t.Fatalf("row %d starts at %d, want %d (exact grid)", i, row.Start, int64(i)*interval)
		}
		if row.End != row.Start+interval {
			t.Fatalf("row %d ends at %d, want %d (End stays on the grid)", i, row.End, row.Start+interval)
		}
		wantCycles := int64(interval)
		if c := res.Cycles - row.Start; c < wantCycles {
			wantCycles = c // final interval: only the simulated tail counts
		}
		if row.Cycles != wantCycles {
			t.Fatalf("row %d claims %d cycles for [%d,%d), want %d", i, row.Cycles, row.Start, row.End, wantCycles)
		}
		for core, stack := range row.CPI {
			var sum int64
			for _, v := range stack {
				sum += v
			}
			if sum != row.Cycles {
				t.Fatalf("row %d core %d attributes %d of %d cycles", i, core, sum, row.Cycles)
			}
		}
	}
}

// BenchmarkRunObsOff measures the simulator with instrumentation compiled
// in but disabled (nil recorder): the acceptance bar is that this stays
// within noise (<2%) of the pre-instrumentation simulator, since every
// disabled hook is a single nil check.
func BenchmarkRunObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runIrregular(b, 1<<13, nil)
	}
}

// BenchmarkRunObsOn measures the cost of full instrumentation (trace +
// metrics to io.Discard) for comparison with BenchmarkRunObsOff.
func BenchmarkRunObsOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := obs.New(obs.Options{Interval: 10000, Trace: io.Discard, Metrics: io.Discard})
		runIrregular(b, 1<<13, func(c *Config) { c.Obs = rec })
	}
}
