package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLatestBenchNumericOrder(t *testing.T) {
	dir := t.TempDir()
	if got, want := latestBench(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Fatalf("empty dir: latestBench = %s, want %s", got, want)
	}
	for _, name := range []string{"BENCH_8.json", "BENCH_10.json", "BENCH_9.json", "BENCH_x.json", "BENCH_11.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := latestBench(dir), filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Fatalf("latestBench = %s, want %s", got, want)
	}
}

func TestMedianSpread(t *testing.T) {
	runs := []int64{812, 735, 917, 760, 790}
	if got := median(runs); got != 790 {
		t.Fatalf("median = %d, want 790", got)
	}
	if got := spread(runs); got != 182 {
		t.Fatalf("spread = %d, want 182", got)
	}
	if runs[0] != 812 {
		t.Fatalf("median reordered its argument: %v", runs)
	}
}

func TestPeakRSSMiB(t *testing.T) {
	q := quickBatch{rssKiB: []int64{14336, 13312, 15155, 13824, 14000}}
	med, spr := q.peakRSSMiB()
	if med != 13.7 || spr != 1.8 {
		t.Fatalf("peakRSSMiB = %.1f, %.1f; want 13.7, 1.8", med, spr)
	}
}

// TestGateQuickRefusesNoisyBatch: a batch timed on a busy host (a
// 1,246 ms median with a 401 ms spread) against a 785 ms / 38 ms baseline
// exceeds the 1,224 ms limit, so it neither passes the gate nor replaces
// the baseline; a quiet batch of the same code passes.
func TestGateQuickRefusesNoisyBatch(t *testing.T) {
	baseline := &Doc{
		QuickBenchMS: 785, QuickRuns: 5, QuickRunsMS: []int64{785, 793, 765, 803, 780}, QuickSpreadMS: 38,
		QuickPeakRSSMiB: 14.3, QuickRSSSpreadMiB: 1,
	}
	rss := []int64{14643, 14700, 14600, 14650, 14680}
	noisy := quickBatch{walls: []int64{1000, 1246, 1401, 1100, 1300}, rssKiB: rss}
	if err := gateQuick(baseline, noisy, "BENCH_10.json"); err == nil || !strings.Contains(err.Error(), "limit 1224 ms") {
		t.Fatalf("noisy batch: gateQuick = %v, want a refusal at the 1224 ms limit", err)
	}
	quiet := quickBatch{walls: []int64{801, 857, 835, 868, 837}, rssKiB: rss}
	if err := gateQuick(baseline, quiet, "BENCH_10.json"); err != nil {
		t.Fatalf("quiet batch: %v", err)
	}
	bloated := quickBatch{walls: quiet.walls, rssKiB: []int64{20480, 20500, 20490, 20470, 20460}}
	if err := gateQuick(baseline, bloated, "BENCH_10.json"); err == nil || !strings.Contains(err.Error(), "peak RSS") {
		t.Fatalf("bloated batch: gateQuick = %v, want a peak-RSS refusal", err)
	}
}
