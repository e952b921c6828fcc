package main

import (
	"os"
	"path/filepath"
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
