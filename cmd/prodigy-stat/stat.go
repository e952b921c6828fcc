package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"prodigy/internal/exp"
	"prodigy/internal/obs"
	"prodigy/internal/statdiff"
	"prodigy/internal/stats"
)

// run is the testable CLI entry point; it returns the process exit code
// (0 success, 1 regression-gate failure, 2 usage or I/O error).
func run(stdout, stderr io.Writer, args []string) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "show":
		return runShow(stdout, stderr, args[1:])
	case "diff":
		return runDiff(stdout, stderr, args[1:])
	case "hist":
		return runHist(stdout, stderr, args[1:])
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		// Bare filename acts as show for convenience.
		if _, err := os.Stat(args[0]); err == nil {
			return runShow(stdout, stderr, args)
		}
		fmt.Fprintf(stderr, "prodigy-stat: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  prodigy-stat show <file.jsonl>
      Render a runner JSONL (per-run summaries) or metrics JSONL
      (interval counters) as tables. The kind is auto-detected.
  prodigy-stat diff [-fail-on spec] <base.jsonl> <new.jsonl>
      Join two runner JSONLs on (label, scheme, variant) and print
      percentage deltas. -fail-on "accuracy=5,ipc=2" exits 1 when any
      named metric regresses by more than the given percent. Metrics:
      ipc, cycles, wall, accuracy, coverage, timeliness.
  prodigy-stat hist [-assert] <hist.jsonl>
      Render per-access latency histograms (the memlat calibration
      sweep, prodigy-sim -memlat) as plateau bar charts. -assert exits
      1 when any point's modal latency differs from the latency the
      machine config predicts.
`)
}

// loadFile splits a JSONL file into runner summaries, metrics rows, and
// latency histograms, detecting each line's kind by its keys ("label" →
// RunSummary, "interval" → MetricsRow, "hist" → HistRow).
func loadFile(path string) (runs []exp.RunSummary, rows []obs.MetricsRow, hists []obs.HistRow, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() { _ = f.Close() }() // read-only; Close error carries no data-loss signal
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return nil, nil, nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		switch {
		case probe["label"] != nil:
			var s exp.RunSummary
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				return nil, nil, nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
			}
			runs = append(runs, s)
		case probe["interval"] != nil:
			var r obs.MetricsRow
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, nil, nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
			}
			rows = append(rows, r)
		case probe["hist"] != nil:
			var h obs.HistRow
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, nil, nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
			}
			hists = append(hists, h)
		default:
			return nil, nil, nil, fmt.Errorf("%s:%d: unrecognized record (no label, interval, or hist key)", path, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	return runs, rows, hists, nil
}

func runShow(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: prodigy-stat show <file.jsonl>")
		return 2
	}
	runs, rows, hists, err := loadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "prodigy-stat:", err)
		return 2
	}
	if len(runs) > 0 {
		showRuns(stdout, runs)
	}
	if len(rows) > 0 {
		showMetrics(stdout, rows)
	}
	if len(hists) > 0 {
		showHists(stdout, hists)
	}
	if len(runs) == 0 && len(rows) == 0 && len(hists) == 0 {
		fmt.Fprintln(stderr, "prodigy-stat: no records in", fs.Arg(0))
		return 2
	}
	return 0
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// showRuns renders runner summaries: one quality row per run, then the
// CPI-stack breakdown. Rows keep file order (the order runs completed).
func showRuns(w io.Writer, runs []exp.RunSummary) {
	t := stats.NewTable("Runs", "label", "scheme", "cycles", "IPC",
		"accuracy", "coverage", "timeliness", "abort")
	for _, s := range runs {
		acc, cov, tim := "-", "-", "-"
		if s.PF != nil {
			acc, cov, tim = pct(s.PF.Accuracy), pct(s.PF.Coverage), pct(s.PF.Timeliness)
		}
		scheme := s.Scheme
		if s.Variant != "" {
			scheme += " " + s.Variant
		}
		t.AddRow(s.Label, scheme, s.Cycles, s.IPC, acc, cov, tim, s.Abort)
	}
	fmt.Fprintln(w, t)

	// Stall-class columns in a deterministic order: union of all rows'
	// CPI-stack keys, sorted.
	classSet := map[string]bool{}
	for _, s := range runs {
		for k := range s.CPIStack {
			classSet[k] = true
		}
	}
	if len(classSet) == 0 {
		return
	}
	classes := make([]string, 0, len(classSet))
	for k := range classSet {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	headers := append([]string{"label", "scheme"}, classes...)
	t2 := stats.NewTable("CPI stack (fraction of cycles)", headers...)
	for _, s := range runs {
		row := []interface{}{s.Label, s.Scheme}
		for _, c := range classes {
			row = append(row, s.CPIStack[c])
		}
		t2.AddRow(row...)
	}
	fmt.Fprintln(w, t2)
}

// showMetrics reduces interval metrics rows to counter totals (last-wins
// for gauges), sorted by counter name for deterministic output.
func showMetrics(w io.Writer, rows []obs.MetricsRow) {
	totals := map[string]uint64{}
	var cycles int64
	for _, r := range rows {
		cycles += r.Cycles
		for name, v := range r.Counters {
			totals[name] += v
		}
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	t := stats.NewTable(fmt.Sprintf("Counter totals (%d intervals, %d aggregate cycles)", len(rows), cycles),
		"counter", "total")
	for _, n := range names {
		t.AddRow(n, totals[n])
	}
	fmt.Fprintln(w, t)
}

// histBarWidth is the widest plateau bar showHists draws.
const histBarWidth = 40

// showHists renders each latency histogram as a bar chart: one line per
// non-empty bucket, scaled to the modal count, with the config-predicted
// plateau marked. The chart makes an off-by-N plateau visible at a
// glance — the bar sits one row away from the "expect" marker.
func showHists(w io.Writer, hists []obs.HistRow) {
	for _, h := range hists {
		fmt.Fprintf(w, "%s  target=%s pattern=%s ws=%dB\n", h.Hist, h.Target, h.Pattern, h.WorkingSet)
		fmt.Fprintf(w, "  total=%d mode=%d expect=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
			h.Total, h.Mode, h.Expect, h.Mean, h.P50, h.P95, h.P99, h.Max)
		var peak uint64
		for _, b := range h.Buckets {
			if b.Count > peak {
				peak = b.Count
			}
		}
		for _, b := range h.Buckets {
			label := fmt.Sprintf("%d", b.Lo)
			if b.Hi != b.Lo {
				label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
			}
			n := int(b.Count * histBarWidth / peak)
			if n == 0 {
				n = 1
			}
			mark := ""
			if b.Lo <= h.Expect && h.Expect <= b.Hi {
				mark = "  <- expect"
			}
			fmt.Fprintf(w, "  %10s |%-*s %d%s\n", label, histBarWidth, strings.Repeat("#", n), b.Count, mark)
		}
	}
}

// runHist renders latency histograms; with -assert it exits 1 when any
// point's modal latency misses its predicted plateau.
func runHist(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("hist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	assert := fs.Bool("assert", false, "exit 1 if any modal latency differs from its predicted plateau")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: prodigy-stat hist [-assert] <hist.jsonl>")
		return 2
	}
	_, _, hists, err := loadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "prodigy-stat:", err)
		return 2
	}
	if len(hists) == 0 {
		fmt.Fprintln(stderr, "prodigy-stat: no histogram records in", fs.Arg(0))
		return 2
	}
	showHists(stdout, hists)
	var failures []string
	for _, h := range hists {
		if h.Mode != h.Expect {
			failures = append(failures, fmt.Sprintf(
				"%s: modal latency %d cycles, config predicts %d", h.Hist, h.Mode, h.Expect))
		}
	}
	fmt.Fprintf(stdout, "%d/%d plateaus match the configured latencies\n",
		len(hists)-len(failures), len(hists))
	if *assert && len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "FAIL:", f)
		}
		return 1
	}
	return 0
}

// runDiff joins two runner JSONLs and prints percentage deltas. The
// reduction itself lives in internal/statdiff so the sweep server's
// GET /diff endpoint shares it exactly.
func runDiff(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	failOn := fs.String("fail-on", "", "comma-separated metric=percent regression thresholds (e.g. \"accuracy=5,ipc=2\")")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: prodigy-stat diff [-fail-on spec] <base.jsonl> <new.jsonl>")
		return 2
	}
	specs, err := statdiff.ParseFailOn(*failOn)
	if err != nil {
		fmt.Fprintln(stderr, "prodigy-stat:", err)
		return 2
	}
	baseRuns, _, _, err := loadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "prodigy-stat:", err)
		return 2
	}
	newRuns, _, _, err := loadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "prodigy-stat:", err)
		return 2
	}
	if len(baseRuns) == 0 || len(newRuns) == 0 {
		fmt.Fprintln(stderr, "prodigy-stat: diff needs runner summaries in both files")
		return 2
	}

	res := statdiff.Diff(baseRuns, newRuns, specs)
	fmt.Fprintln(stdout, res.Table)
	fmt.Fprintf(stdout, "%d cells compared (%d base-only, %d new-only)\n",
		res.Matched, res.BaseOnly, res.NewOnly)
	if len(res.Failures) > 0 {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "FAIL:", f)
		}
		return 1
	}
	return 0
}
