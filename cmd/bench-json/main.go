// Command bench-json records the repo's performance trajectory and runs
// its paired wall-clock gate (docs/ARCHITECTURE.md §Performance).
//
// By default it runs the hot-path microbenchmarks (internal/cache,
// internal/sim, internal/dram, internal/core, internal/trace,
// internal/stats) and times -quick-runs runs of `prodigy-bench -quick`,
// and writes both as one JSON document to -out, by default the next
// unused BENCH_<n>.json, so a recording never overwrites history. It
// gates nothing: each benchmark's 0 allocs/op contract is a test beside
// it in `go test ./...`, and ns/op and wall time vary with the host.
//
// -quick-gate compares this working tree's `prodigy-bench -quick` with
// its parent commit's on the same host, so a slow host slows both sides.
// The parent is HEAD when the tree has uncommitted changes and HEAD~
// otherwise. The gate exports the parent with `git archive`, builds both
// trees the same way, and runs -quick-runs pairs. A pair runs each binary
// twice, parent-change-change-parent or the reverse, alternately, and
// keeps each side's smaller wall time and smaller peak resident set size.
// The gate fails when the change's wall time, or its peak RSS, is larger
// than the parent's by a one-sided signed-rank test over the pairs at
// p <= 0.01. When git cannot resolve the parent (a shallow clone, the
// first commit), there is nothing to compare with, and the gate passes.
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Bench is one microbenchmark's result (per-op metrics from -benchmem).
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Doc is the BENCH_<n>.json schema.
type Doc struct {
	// GoVersion and CPU identify the measurement host (ns/op is only
	// comparable within one host).
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
}

// suites lists the hot-path benchmarks (package -> -bench regexp). The
// sim filter must not match BenchmarkRunObs*, which run full simulations.
var suites = []struct{ pkg, pattern string }{
	{"./internal/cache", "BenchmarkHierarchyAccess|BenchmarkHierarchyMiss|BenchmarkHierarchySharedRead|BenchmarkFillPrefetch"},
	{"./internal/sim", "BenchmarkPrefetchIssueProcess"},
	{"./internal/dram", "BenchmarkControllerRequest|BenchmarkControllerBacklog"},
	{"./internal/core", "BenchmarkProdigyWalk"},
	{"./internal/trace", "BenchmarkEmitDrain"},
	{"./internal/stats", "BenchmarkHistogramRecord"},
}

func main() {
	out := flag.String("out", nextBench("."), "output JSON file; defaults to the next unused BENCH_<n>.json")
	quickRuns := flag.Int("quick-runs", 20, "prodigy-bench -quick runs to record, or parent/change pairs with -quick-gate (7 or more can fail); 0 skips")
	quickGate := flag.Bool("quick-gate", false,
		"only run prodigy-bench -quick in pairs with the parent commit's build and fail if the change is slower, or peaks larger, by a signed-rank test at p <= 0.01")
	flag.Parse()

	var err error
	if *quickGate {
		err = runQuickGate(*quickRuns)
	} else {
		err = run(*out, *quickRuns)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}
}

// nextBench returns the BENCH_<n>.json after the highest-numbered one in
// dir, by numeric order so that BENCH_10 follows BENCH_9, or BENCH_1.json
// when dir holds none.
func nextBench(dir string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	last := 0
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && n > last {
			last = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", last+1))
}

// runQuickGate builds the parent commit's and the working tree's
// prodigy-bench, runs them in pairs, and compares the pairs with
// gatePaired.
func runQuickGate(pairs int) error {
	if pairs < 1 {
		fmt.Println("== quick gate: no pairs to run; nothing to gate")
		return nil
	}
	rev := "HEAD~"
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev = "HEAD"
	}
	sha, err := exec.Command("git", "rev-parse", "--verify", "--quiet", rev+"^{commit}").Output()
	if err != nil {
		fmt.Printf("== quick gate: git cannot resolve the parent %s (a shallow clone or the first commit); nothing to gate\n", rev)
		return nil
	}
	commit := strings.TrimSpace(string(sha))

	tmp, err := os.MkdirTemp("", "bench-json-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) //lint:allow errcheck best-effort temp-dir cleanup
	src, tarball := filepath.Join(tmp, "parent"), filepath.Join(tmp, "parent.tar")
	if err := os.Mkdir(src, 0o755); err != nil {
		return err
	}
	for _, args := range [][]string{{"git", "archive", "-o", tarball, commit}, {"tar", "-x", "-f", tarball, "-C", src}} {
		if raw, err := exec.Command(args[0], args[1:]...).CombinedOutput(); err != nil {
			return fmt.Errorf("exporting %s: %s: %v\n%s", rev, strings.Join(args, " "), err, raw)
		}
	}
	parentBin, changeBin := filepath.Join(tmp, "parent-bench"), filepath.Join(tmp, "change-bench")
	if err := buildQuickBench(src, parentBin); err != nil {
		return fmt.Errorf("parent %s: %w", rev, err)
	}
	if err := buildQuickBench(".", changeBin); err != nil {
		return err
	}

	fmt.Printf("== quick gate: %d pairs of prodigy-bench -quick, parent %s (%.12s) against the working tree\n", pairs, rev, commit)
	var parent, change quickBatch
	for i := 0; i < pairs; i++ {
		var p, c quickBatch
		order := []*quickBatch{&p, &c, &c, &p}
		if i%2 == 1 {
			order = []*quickBatch{&c, &p, &p, &c}
		}
		for _, q := range order {
			bin := parentBin
			if q == &c {
				bin = changeBin
			}
			if err := q.run(bin); err != nil {
				return err
			}
		}
		parent.add(p.fastest())
		change.add(c.fastest())
		fmt.Printf("   pair %2d: parent %v ms %v KiB, change %v ms %v KiB\n", i+1, p.walls, p.rssKiB, c.walls, c.rssKiB)
	}
	return gatePaired(parent, change)
}

// gateAlpha is the quick gate's false-alarm rate per metric: the p-value
// at or below which a paired difference counts as a regression.
const gateAlpha = 0.01

// gatePaired is the quick gate's verdict on two batches of the same
// length, pair i being parent value i and change value i: it fails when
// the change's wall time, or its peak RSS, is larger than the parent's
// by a paired signed-rank test at gateAlpha (signedRankP). Of ten pairs,
// the change must be larger in at least eight to fail.
func gatePaired(parent, change quickBatch) error {
	var failed []string
	for _, m := range []struct {
		name           string
		parent, change []int64
		show           func(int64) string
	}{
		{"wall time", parent.walls, change.walls, func(ms int64) string { return fmt.Sprintf("%d ms", ms) }},
		{"peak RSS", parent.rssKiB, change.rssKiB, func(kib int64) string { return fmt.Sprintf("%.1f MiB", mib(kib)) }},
	} {
		d := make([]int64, len(m.parent))
		larger := 0
		for i := range d {
			if d[i] = m.change[i] - m.parent[i]; d[i] > 0 {
				larger++
			}
		}
		p := signedRankP(d)
		verdict := fmt.Sprintf("%s: change larger in %d of %d pairs (p = %.4f), median %s against the parent's %s",
			m.name, larger, len(d), p, m.show(median(m.change)), m.show(median(m.parent)))
		if p <= gateAlpha {
			failed = append(failed, "prodigy-bench -quick regressed: "+verdict)
		} else {
			fmt.Printf("== quick gate: %s: ok\n", verdict)
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "\n"))
	}
	return nil
}

// signedRankP is the one-sided p-value of Wilcoxon's signed-rank test
// that the paired differences d are centred above zero. Rank the nonzero
// differences by magnitude (tied magnitudes share their mean rank) and
// sum the ranks of the negative ones; with no change every assignment of
// signs to the ranks is equally likely, and p is the share of the 2^n
// assignments whose negative ranks sum to no more. Ranks rather than
// raw differences keep one disturbed pair from deciding the verdict.
func signedRankP(d []int64) float64 {
	abs := func(x int64) int64 { return max(x, -x) }
	var nz []int64
	for _, x := range d {
		if x != 0 {
			nz = append(nz, x)
		}
	}
	sort.Slice(nz, func(i, j int) bool { return abs(nz[i]) < abs(nz[j]) })
	n, negRanks := len(nz), 0.0
	for i := 0; i < n; {
		j := i
		for j < n && abs(nz[j]) == abs(nz[i]) {
			j++
		}
		for k := i; k < j; k++ {
			if nz[k] < 0 {
				negRanks += float64(i+j+1) / 2 // the mean of ranks i+1..j
			}
		}
		i = j
	}
	// ways[s] counts the subsets of the ranks 1..n that sum to s.
	ways := make([]float64, n*(n+1)/2+1)
	ways[0] = 1
	for r := 1; r <= n; r++ {
		for s := len(ways) - 1; s >= r; s-- {
			ways[s] += ways[s-r]
		}
	}
	atMost := 0.0
	for s := 0; s < len(ways) && float64(s) <= negRanks; s++ {
		atMost += ways[s]
	}
	return atMost / math.Exp2(float64(n))
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

// run records the microbenchmarks and quickRuns timed runs of
// `prodigy-bench -quick` in out.
func run(out string, quickRuns int) error {
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

	if quickRuns > 0 {
		q, err := timeQuickBench(quickRuns)
		if err != nil {
			return err
		}
		doc.QuickRunsMS, doc.QuickBenchMS, doc.QuickSpreadMS = q.walls, median(q.walls), spread(q.walls)
		doc.QuickPeakRSSMiB, doc.QuickRSSSpreadMiB = q.peakRSSMiB()
		fmt.Printf("== prodigy-bench -quick: median of %d = %d ms, spread %d ms %v; peak RSS median %.1f MiB, spread %.1f MiB\n",
			quickRuns, doc.QuickBenchMS, doc.QuickSpreadMS, q.walls, doc.QuickPeakRSSMiB, doc.QuickRSSSpreadMiB)
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

// mib converts KiB to MiB, to 0.1 MiB.
func mib(kib int64) float64 { return math.Round(float64(kib)*10/1024) / 10 }

// peakRSSMiB returns the median and spread of the runs' peak RSS in MiB,
// to 0.1 MiB.
func (q quickBatch) peakRSSMiB() (med, spr float64) {
	return mib(median(q.rssKiB)), mib(spread(q.rssKiB))
}

// add appends one run's measurements.
func (q *quickBatch) add(wallMS, rssKiB int64) {
	q.walls = append(q.walls, wallMS)
	q.rssKiB = append(q.rssKiB, rssKiB)
}

// fastest returns the smallest wall time and the smallest peak RSS of
// q's runs. A shared host's interference only slows a run down or grows
// its heap before a collection, so of runs taken back to back the
// smallest values are the least disturbed.
func (q quickBatch) fastest() (wallMS, rssKiB int64) {
	return slices.Min(q.walls), slices.Min(q.rssKiB)
}

// run times one `bin -quick` and appends its wall time and peak RSS.
func (q *quickBatch) run(bin string) error {
	cmd := exec.Command(bin, "-quick")
	start := time.Now()
	if raw, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("prodigy-bench -quick: %v\n%s", err, raw)
	}
	wall := time.Since(start).Milliseconds()
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return fmt.Errorf("prodigy-bench -quick: no resource usage on this platform")
	}
	q.add(wall, ru.Maxrss) // Maxrss is in KiB on Linux
	return nil
}

// buildQuickBench builds dir's cmd/prodigy-bench into bin. Both sides of
// the quick gate build this way (the committed default.pgo applies to
// both), and trimmed paths and no VCS stamp make identical source build
// identical binaries wherever the tree sits.
func buildQuickBench(dir, bin string) error {
	cmd := exec.Command("go", "build", "-trimpath", "-buildvcs=false", "-o", bin, "./cmd/prodigy-bench")
	cmd.Dir = dir
	if raw, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building prodigy-bench: %v\n%s", err, raw)
	}
	return nil
}

// timeQuickBench builds the working tree's cmd/prodigy-bench and
// measures runs invocations of `-quick`.
func timeQuickBench(runs int) (quickBatch, error) {
	var q quickBatch
	tmp, err := os.MkdirTemp("", "bench-json-")
	if err != nil {
		return q, err
	}
	defer os.RemoveAll(tmp) //lint:allow errcheck best-effort temp-dir cleanup
	bin := filepath.Join(tmp, "prodigy-bench")
	if err := buildQuickBench(".", bin); err != nil {
		return q, err
	}
	for i := 0; i < runs; i++ {
		if err := q.run(bin); err != nil {
			return q, err
		}
	}
	return q, nil
}
