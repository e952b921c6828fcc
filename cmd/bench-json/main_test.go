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
