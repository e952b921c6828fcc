// Command bench-json runs the repo's performance gate: the hot-path
// microbenchmarks (internal/cache, internal/sim, internal/dram) plus a
// wall-clock timing of `prodigy-bench -quick` and an in-process quick
// sweep recording Prodigy's prefetch accuracy/coverage/timeliness,
// written as one JSON document (BENCH_<n>.json, see docs/ARCHITECTURE.md
// §Performance).
//
// When the output file already exists it doubles as the baseline: the
// run fails (exit 1) if allocs/op on any benchmark in gated (the cache
// demand, miss, shared-read and prefetch-fill paths, the DRAM backlog
// and the memlat latency-recording path) regresses above the committed
// value, or if the quick sweep's Prodigy accuracy or coverage drops
// below the committed baseline (beyond a small tolerance), so the hot
// path stays allocation-free and the prefetcher stays effective by
// construction. When the baseline has per-run walls, the new quick batch
// must also pass the -quick-gate comparison below before it may replace
// them, so a batch timed on a busy host cannot loosen the gate.
// ns/op is recorded but not gated — it varies with the host.
//
// -quick-gate runs only the wall-clock check: it times
// `prodigy-bench -quick` as many times as the committed baseline did and
// fails if the median exceeds the baseline's median by more than the two
// batches' spreads (slowest minus fastest run) added together, a gap
// that neither batch's own noise explains. `make check` runs this mode,
// so simulator throughput regressions fail tier-1 verification on the
// machine that committed the baseline. The margin is the noise the runs
// measured, not a fixed percentage; a fresh checkout with no baseline,
// or a baseline without per-run walls, passes trivially. The same runs'
// peak resident set sizes are gated the same way (median against the
// baseline's median plus both spreads), skipped when the baseline has
// no quick_peak_rss_mib.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prodigy/internal/exp"
)

// Bench is one microbenchmark's result (per-op metrics from -benchmem).
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Quality is one quick-sweep cell's prefetch-quality ratios (see
// sim.PrefetchQuality for the lifecycle definitions).
type Quality struct {
	Accuracy   float64 `json:"accuracy"`
	Coverage   float64 `json:"coverage"`
	Timeliness float64 `json:"timeliness"`
}

// Doc is the BENCH_<n>.json schema.
type Doc struct {
	// GoVersion and CPU identify the measurement host (ns/op is only
	// comparable within one host; allocs/op is host-independent).
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
	// Benchmarks maps benchmark name (without the -cpu suffix) to its
	// per-op metrics.
	Benchmarks map[string]Bench `json:"benchmarks"`
	// QuickBenchMS is the median wall time of QuickRuns runs of
	// `prodigy-bench -quick`; QuickRunsMS lists every run's wall time in
	// run order and QuickSpreadMS is the slowest minus the fastest.
	QuickBenchMS  int64   `json:"quick_bench_ms"`
	QuickRuns     int     `json:"quick_runs"`
	QuickRunsMS   []int64 `json:"quick_runs_ms,omitempty"`
	QuickSpreadMS int64   `json:"quick_spread_ms,omitempty"`
	// QuickPeakRSSMiB is the median peak resident set size of the same
	// runs (each child's Maxrss) and QuickRSSSpreadMiB the largest minus
	// the smallest.
	QuickPeakRSSMiB   float64 `json:"quick_peak_rss_mib,omitempty"`
	QuickRSSSpreadMiB float64 `json:"quick_rss_spread_mib,omitempty"`
	// Quality maps quick-sweep cell ("algo-dataset/scheme") to its
	// prefetch-quality ratios. Deterministic (simulated cycles only), so
	// unlike ns/op it is gated: accuracy/coverage must not regress.
	Quality map[string]Quality `json:"quality,omitempty"`
	// ParentBenchmarks records, for a change that claims a
	// microbenchmark gain, the parent commit's per-op metrics for the
	// benchmarks it names, measured on the same host by alternating
	// parent and change test binaries. bench-json neither measures nor
	// gates it and drops it when it rewrites the file, so a copy made
	// for the next change does not carry a stale claim: it is entered by
	// hand after the run.
	ParentBenchmarks map[string]Bench `json:"parent_benchmarks,omitempty"`
}

// gated lists the benchmarks whose allocs/op may never grow past the
// committed baseline: the demand hot path, the DRAM-miss path, the
// shared-read coherence walks and the prefetch-fill path, all carrying
// the always-on lifecycle telemetry, the DRAM controller under a
// standing prefetch backlog, plus the latency-histogram record path that
// sits behind sim.Config.LatencyHook during memlat calibration runs.
var gated = []string{"BenchmarkHierarchyAccess", "BenchmarkHierarchyMiss", "BenchmarkHierarchySharedRead", "BenchmarkFillPrefetch", "BenchmarkControllerBacklog", "BenchmarkHistogramRecord"}

// qualityCells is the quick sweep measured for the quality gate.
var qualityCells = []struct {
	algo, dataset string
}{
	{"bfs", "po"},
	{"pr", "po"},
	{"cc", "po"},
}

// qualityTolerance absorbs float jitter in the regression comparison;
// the simulation itself is deterministic, so any real regression clears
// this easily.
const qualityTolerance = 0.002

// suites lists the hot-path benchmarks (package -> -bench regexp). The
// sim filter must not match BenchmarkRunObs*, which run full simulations.
var suites = []struct{ pkg, pattern string }{
	{"./internal/cache", "BenchmarkHierarchyAccess|BenchmarkHierarchyMiss|BenchmarkHierarchySharedRead|BenchmarkFillPrefetch"},
	{"./internal/sim", "BenchmarkPrefetchIssueProcess"},
	{"./internal/dram", "BenchmarkControllerRequest|BenchmarkControllerBacklog"},
	{"./internal/stats", "BenchmarkHistogramRecord"},
}

func main() {
	out := flag.String("out", latestBench("."), "output (and baseline) JSON file; defaults to the highest-numbered BENCH_<n>.json")
	quickRuns := flag.Int("quick-runs", 5, "prodigy-bench -quick repetitions (the median is recorded); 0 skips")
	quickGate := flag.Bool("quick-gate", false,
		"only time prodigy-bench -quick as often as the committed baseline did and fail if the median exceeds the baseline's by more than both batches' spreads")
	flag.Parse()

	var err error
	if *quickGate {
		err = runQuickGate(*out)
	} else {
		err = run(*out, *quickRuns)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}
}

// latestBench returns the highest-numbered BENCH_<n>.json in dir, by
// numeric order so that BENCH_10 follows BENCH_9, or BENCH_1.json when
// dir holds none.
func latestBench(dir string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	best, bestN := filepath.Join(dir, "BENCH_1.json"), -1
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

// runQuickGate is the wall-clock regression gate `make check` runs: no
// microbenchmarks, no file rewrite — just time the quick bench the way
// the committed baseline was timed (same number of runs, same
// statistic) and compare the batches with gateQuick.
func runQuickGate(out string) error {
	baseline := readBaseline(out)
	if baseline == nil || len(baseline.QuickRunsMS) == 0 {
		fmt.Printf("== quick gate: no per-run wall-clock baseline in %s; nothing to gate\n", out)
		return nil
	}
	q, err := timeQuickBench(len(baseline.QuickRunsMS))
	if err != nil {
		return err
	}
	return gateQuick(baseline, q, out)
}

// gateQuick compares a batch of `prodigy-bench -quick` runs with the
// baseline's per-run walls: the median wall time, and the median peak RSS
// when the baseline has one, must not exceed the baseline's median by
// more than the spread the baseline recorded plus the spread of the new
// batch. A shared host's load drifts between batches, so one batch's
// spread alone understates the noise between two batches. Both the gate
// and a rewrite of the baseline apply it, so a batch taken on a busy host
// can neither pass the gate nor replace the baseline with a looser one.
func gateQuick(baseline *Doc, q quickBatch, out string) error {
	var failed []string
	ms, limit := median(q.walls), baseline.QuickBenchMS+baseline.QuickSpreadMS+spread(q.walls)
	verdict := fmt.Sprintf("median of %d = %d ms %v, limit %d ms (baseline median %d ms + its spread %d ms + this spread %d ms, %s)",
		len(q.walls), ms, q.walls, limit, baseline.QuickBenchMS, baseline.QuickSpreadMS, spread(q.walls), out)
	if ms > limit {
		failed = append(failed, "prodigy-bench -quick regressed: "+verdict)
	} else {
		fmt.Printf("== quick gate: %s: ok\n", verdict)
	}
	if baseline.QuickPeakRSSMiB == 0 {
		fmt.Printf("== quick RSS gate: no peak-RSS baseline in %s; nothing to gate\n", out)
	} else {
		rss, rssSpread := q.peakRSSMiB()
		rssLimit := baseline.QuickPeakRSSMiB + baseline.QuickRSSSpreadMiB + rssSpread
		verdict := fmt.Sprintf("median peak RSS %.1f MiB, limit %.1f MiB (baseline median %.1f MiB + its spread %.1f MiB + this spread %.1f MiB, %s)",
			rss, rssLimit, baseline.QuickPeakRSSMiB, baseline.QuickRSSSpreadMiB, rssSpread, out)
		if rss > rssLimit {
			failed = append(failed, "prodigy-bench -quick peak RSS regressed: "+verdict)
		} else {
			fmt.Printf("== quick RSS gate: %s: ok\n", verdict)
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "\n"))
	}
	return nil
}

// median returns the middle value of runs (the upper middle for an even
// count).
func median(runs []int64) int64 {
	s := append([]int64(nil), runs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// spread returns the slowest minus the fastest of runs.
func spread(runs []int64) int64 {
	lo, hi := runs[0], runs[0]
	for _, r := range runs {
		lo, hi = min(lo, r), max(hi, r)
	}
	return hi - lo
}

func run(out string, quickRuns int) error {
	baseline := readBaseline(out)

	doc := Doc{
		GoVersion:  goVersion(),
		Benchmarks: map[string]Bench{},
		QuickRuns:  quickRuns,
	}
	for _, s := range suites {
		fmt.Printf("== go test -bench %s %s\n", s.pattern, s.pkg)
		raw, err := exec.Command("go", "test", "-run", "^$",
			"-bench", s.pattern, "-benchmem", s.pkg).CombinedOutput()
		if err != nil {
			return fmt.Errorf("%s: %v\n%s", s.pkg, err, raw)
		}
		if cpu := parseField(raw, "cpu:"); cpu != "" {
			doc.CPU = cpu
		}
		if err := parseBenchLines(raw, doc.Benchmarks); err != nil {
			return fmt.Errorf("%s: %v", s.pkg, err)
		}
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results parsed")
	}
	for name, b := range doc.Benchmarks {
		fmt.Printf("   %-32s %10.1f ns/op %6d B/op %4d allocs/op\n",
			name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}

	var q quickBatch
	if quickRuns > 0 {
		var err error
		if q, err = timeQuickBench(quickRuns); err != nil {
			return err
		}
		doc.QuickRunsMS, doc.QuickBenchMS, doc.QuickSpreadMS = q.walls, median(q.walls), spread(q.walls)
		doc.QuickPeakRSSMiB, doc.QuickRSSSpreadMiB = q.peakRSSMiB()
		fmt.Printf("== prodigy-bench -quick: median of %d = %d ms, spread %d ms %v; peak RSS median %.1f MiB, spread %.1f MiB\n",
			quickRuns, doc.QuickBenchMS, doc.QuickSpreadMS, q.walls, doc.QuickPeakRSSMiB, doc.QuickRSSSpreadMiB)
	}

	if err := measureQuality(&doc); err != nil {
		return err
	}

	// The gates: compare against the committed file before overwriting it.
	if baseline != nil {
		for _, name := range gated {
			base, haveBase := baseline.Benchmarks[name]
			got, haveGot := doc.Benchmarks[name]
			switch {
			case !haveGot:
				return fmt.Errorf("%s missing from this run", name)
			case haveBase && got.AllocsPerOp > base.AllocsPerOp:
				return fmt.Errorf("%s allocs/op regressed: %d > baseline %d (%s)",
					name, got.AllocsPerOp, base.AllocsPerOp, out)
			case haveBase:
				fmt.Printf("== alloc gate: %s %d allocs/op <= baseline %d: ok\n",
					name, got.AllocsPerOp, base.AllocsPerOp)
			}
		}
		if err := gateQuality(baseline, &doc, out); err != nil {
			return err
		}
		if len(q.walls) > 0 && len(baseline.QuickRunsMS) > 0 {
			if err := gateQuick(baseline, q, out); err != nil {
				return fmt.Errorf("not replacing the baseline: %w", err)
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// measureQuality runs the quick sweep in-process (Prodigy scheme on each
// quality cell) and records the aggregate prefetch-quality ratios.
func measureQuality(doc *Doc) error {
	fmt.Println("== quick sweep: prefetch quality (prodigy)")
	h := exp.New(exp.Quick())
	doc.Quality = map[string]Quality{}
	for _, c := range qualityCells {
		r, err := h.RunOne(c.algo, c.dataset, exp.SchemeProdigy)
		if err != nil {
			return fmt.Errorf("quality sweep %s-%s: %w", c.algo, c.dataset, err)
		}
		q := r.Res.PFQAgg
		key := r.Label + "/" + string(exp.SchemeProdigy)
		doc.Quality[key] = Quality{
			Accuracy:   q.Accuracy(),
			Coverage:   q.Coverage(),
			Timeliness: q.Timeliness(),
		}
	}
	names := make([]string, 0, len(doc.Quality))
	for k := range doc.Quality {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		q := doc.Quality[k]
		fmt.Printf("   %-24s accuracy %5.1f%%  coverage %5.1f%%  timeliness %5.1f%%\n",
			k, 100*q.Accuracy, 100*q.Coverage, 100*q.Timeliness)
	}
	return nil
}

// gateQuality fails the run when any cell's accuracy or coverage drops
// below the committed baseline (beyond qualityTolerance). Timeliness is
// recorded but not gated: it trades off against coverage by design
// (deeper look-ahead makes prefetches earlier but riskier).
func gateQuality(baseline, doc *Doc, out string) error {
	if baseline.Quality == nil {
		return nil
	}
	keys := make([]string, 0, len(baseline.Quality))
	for k := range baseline.Quality {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		base := baseline.Quality[k]
		got, ok := doc.Quality[k]
		if !ok {
			return fmt.Errorf("quality cell %s missing from this run", k)
		}
		if got.Accuracy < base.Accuracy-qualityTolerance {
			return fmt.Errorf("%s accuracy regressed: %.4f < baseline %.4f (%s)",
				k, got.Accuracy, base.Accuracy, out)
		}
		if got.Coverage < base.Coverage-qualityTolerance {
			return fmt.Errorf("%s coverage regressed: %.4f < baseline %.4f (%s)",
				k, got.Coverage, base.Coverage, out)
		}
		fmt.Printf("== quality gate: %s accuracy %.4f / coverage %.4f >= baseline: ok\n",
			k, got.Accuracy, got.Coverage)
	}
	return nil
}

// readBaseline loads the committed document, or nil when absent/invalid
// (first run: nothing to gate against).
func readBaseline(path string) *Doc {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var d Doc
	if json.Unmarshal(raw, &d) != nil || d.Benchmarks == nil {
		return nil
	}
	return &d
}

func goVersion() string {
	raw, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

// parseField extracts the value of a `key value` header line from go
// test output (e.g. "cpu: Intel...").
func parseField(raw []byte, key string) string {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, key) {
			return strings.TrimSpace(strings.TrimPrefix(line, key))
		}
	}
	return ""
}

// parseBenchLines parses `BenchmarkX-8  N  12.3 ns/op  0 B/op  0 allocs/op`
// lines into dst, keyed by the name without the GOMAXPROCS suffix.
func parseBenchLines(raw []byte, dst map[string]Bench) error {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 8 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		var b Bench
		var err error
		for i := 2; i+1 < len(f); i += 2 {
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp, err = strconv.ParseFloat(f[i], 64)
			case "B/op":
				b.BytesPerOp, err = strconv.ParseInt(f[i], 10, 64)
			case "allocs/op":
				b.AllocsPerOp, err = strconv.ParseInt(f[i], 10, 64)
			}
			if err != nil {
				return fmt.Errorf("parsing %q: %v", sc.Text(), err)
			}
		}
		dst[name] = b
	}
	return nil
}

// quickBatch is what timing `prodigy-bench -quick` measured, one entry per
// run in run order: wall time (ms) and peak resident set size (KiB, the
// child's Maxrss).
type quickBatch struct {
	walls, rssKiB []int64
}

// peakRSSMiB returns the median and spread of the runs' peak RSS in MiB,
// to 0.1 MiB.
func (q quickBatch) peakRSSMiB() (med, spr float64) {
	mib := func(kib int64) float64 { return math.Round(float64(kib)*10/1024) / 10 }
	return mib(median(q.rssKiB)), mib(spread(q.rssKiB))
}

// timeQuickBench builds cmd/prodigy-bench and measures runs invocations
// of `-quick`.
func timeQuickBench(runs int) (quickBatch, error) {
	var q quickBatch
	tmp, err := os.MkdirTemp("", "bench-json-")
	if err != nil {
		return q, err
	}
	defer os.RemoveAll(tmp) //lint:allow errcheck best-effort temp-dir cleanup
	bin := filepath.Join(tmp, "prodigy-bench")
	if raw, err := exec.Command("go", "build", "-o", bin, "./cmd/prodigy-bench").CombinedOutput(); err != nil {
		return q, fmt.Errorf("building prodigy-bench: %v\n%s", err, raw)
	}
	for i := 0; i < runs; i++ {
		cmd := exec.Command(bin, "-quick")
		start := time.Now()
		if raw, err := cmd.CombinedOutput(); err != nil {
			return q, fmt.Errorf("prodigy-bench -quick: %v\n%s", err, raw)
		}
		q.walls = append(q.walls, time.Since(start).Milliseconds())
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return q, fmt.Errorf("prodigy-bench -quick: no resource usage on this platform")
		}
		q.rssKiB = append(q.rssKiB, ru.Maxrss) // KiB on Linux
	}
	return q, nil
}
