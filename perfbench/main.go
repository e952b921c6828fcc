// Command perfbench is the repository benchmark: serial paper-scale
// sweeps with and without Prodigy, and a cached-replay traffic mix
// against a real prodigy-serve. See README.md for the workloads, the
// metric-to-layer map and the noise controls.
//
// Usage (normally through run.sh, which builds this program and
// prodigy-serve from source first):
//
//	perfbench -workload paper-none|paper-prodigy|serve-replay -seed N
//	          -seconds S -trace 0|1 -serve-bin PATH [-scale small|tiny]
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set; every workload reports every metric of the set, and a
// layer the workload leaves idle reads 0. The line before it records the
// host (Go version, CPU model, CPU count, load average at start and end).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-none", "paper-prodigy", "serve-replay"}

// Metric units. The end-to-end and per-layer name sets are fixed: every
// run reports all of one set (e2eMetrics or layerMetrics).
var e2eMetrics = map[string]string{
	"setup_s":         "s",
	"sim_minst_per_s": "Minst/s",
	"sim_cycles":      "cycles",
	"op_per_s":        "1/s",
	"op_p50_ms":       "ms",
	"op_p90_ms":       "ms",
	"peak_rss_mib":    "MiB",
}

// hostShareBuckets are the buckets the traced run's CPU profile is split
// into: the repository's packages, the Go runtime, and system calls
// (file and socket I/O); everything else lands in host_share.other.
var hostShareBuckets = []string{"cache", "cpu", "sim", "core", "dram", "tlb", "trace",
	"workloads", "graph", "memspace", "obs", "prefetch", "exp", "runtime", "syscall"}

var layerMetrics = func() map[string]string {
	m := map[string]string{
		"graph.load_s":               "s",
		"workloads.build_s":          "s",
		"workloads.verify_s":         "s",
		"trace.drain_s":              "s",
		"trace.minst_per_s":          "Minst/s",
		"trace.entries_per_inst":     "count",
		"sim.run_s":                  "s",
		"sim.engine_self_s":          "s",
		"exp.harness_self_s":         "s",
		"bench.trace_overhead":       "ratio",
		"cpu.ipc":                    "ratio",
		"cpu.cpi_dram_frac":          "ratio",
		"cpu.cpi_cache_frac":         "ratio",
		"cpu.cpi_branch_frac":        "ratio",
		"cache.l1_hit_rate":          "ratio",
		"cache.l2_hit_rate":          "ratio",
		"cache.l3_hit_rate":          "ratio",
		"cache.mem_per_kinst":        "count",
		"cache.writebacks_per_kinst": "count",
		"tlb.miss_rate":              "ratio",
		"dram.requests_per_kinst":    "count",
		"dram.util":                  "ratio",
		"dram.queue_delay_per_req":   "cycles",
		"pf.issued_per_kinst":        "count",
		"pf.redundant_per_kinst":     "count",
		"pf.dropped_per_kinst":       "count",
		"pf.mshr_full_per_kinst":     "count",
		"pf.accuracy":                "ratio",
		"pf.coverage":                "ratio",
		"pf.timeliness":              "ratio",
		"http.server_p50_us":         "us",
		"farm.cache_hit_ratio":       "ratio",
		"farm.cells_per_request":     "count",
		"stream.bytes_per_request":   "B",
		"farm.sweeps_retained":       "count",
		"farm.cell_wall_us_p50":      "us",
		"farm.store_append_us_p50":   "us",
		"farm.store_fsync_us_p50":    "us",
		"host_share.other":           "%",
	}
	for _, b := range hostShareBuckets {
		m["host_share."+b] = "%"
	}
	return m
}()

// zeroLayer returns the per-layer set with every value 0: a traced run
// starts from it and fills in the layers its workload loads.
func zeroLayer() map[string]float64 {
	m := map[string]float64{}
	for name := range layerMetrics {
		m[name] = 0
	}
	return m
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations (a cell or a request) and failures.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // ScaleTiny inputs and short loops (self-test)
	serveBin string // prodigy-serve binary (serve-replay)
	work     string // scratch directory for caches and profiles
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed: cell order (paper-*) or request mix (serve-replay)")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scale := flag.String("scale", "small", "input scale: small (the benchmark) or tiny (self-test)")
	serveBin := flag.String("serve-bin", "", "path to a prodigy-serve binary (serve-replay)")
	work := flag.String("work", ".bench_build/tmp", "scratch directory for caches and profiles")
	setupOnly := flag.Bool("setup-only", false, "generate the paper datasets, print the seconds taken, exit")
	record := flag.Bool("record", false, "print the per-cell (cycles, retired) table expected.json holds and exit")
	flag.Parse()

	if *scale != "small" && *scale != "tiny" {
		fatalf("unknown -scale %q", *scale)
	}
	tiny := *scale == "tiny"
	switch {
	case *setupOnly:
		fmt.Println(loadPaperGraphs(tiny).Seconds())
		return
	case *record:
		if err := recordExpected(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if !slices.Contains(workloadNames, *workload) {
		fatalf("unknown -workload %q (want one of %v)", *workload, workloadNames)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	o := opts{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		tiny: tiny, serveBin: *serveBin, work: *work,
	}
	loadStart := loadAvg()
	res, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	printHost(loadStart, res)
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// run executes one workload and checks its metric set is complete.
func run(o opts) (*result, error) {
	var (
		vals map[string]float64
		t    tally
		err  error
	)
	switch o.workload {
	case "serve-replay":
		vals, t, err = runServe(o)
	default:
		vals, t, err = runPaper(o)
	}
	if err != nil {
		return nil, err
	}
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for name, unit := range want {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("internal: metric %s not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range vals {
		if _, ok := want[name]; !ok {
			return nil, fmt.Errorf("internal: metric %s is not in the reported set", name)
		}
	}
	res.Correct = t.attempted > 0 && t.failed == 0
	return res, nil
}

// printHost writes the run's host record: enough to explain a noisy set
// of runs afterwards (the MLC-report method: toolchain, CPU, core count,
// load before and after), plus the error rate the result line implies.
func printHost(loadStart string, res *result) {
	rec := map[string]any{
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"load_start": loadStart,
		"load_end":   loadAvg(),
		"error_rate": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	b, _ := json.Marshal(map[string]any{"host": rec}) // plain values: cannot fail
	fmt.Println(string(b))
}

// loadAvg returns the 1/5/15-minute load averages from /proc/loadavg.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// setupSamples runs `self -setup-only` in n fresh processes and returns
// the seconds each reported; a fresh process is the only way to time the
// memoized dataset generation more than once.
func setupSamples(n int, tiny bool) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scale := "small"
	if tiny {
		scale = "tiny"
	}
	var out []float64
	for range n {
		cmd := exec.Command(self, "-setup-only", "-scale", scale)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
