package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLatestBenchNumericOrder: the default -out follows the
// highest-numbered BENCH_<n>.json in numeric order, so BENCH_10 counts as
// later than BENCH_9 and a recording never overwrites a committed file.
func TestLatestBenchNumericOrder(t *testing.T) {
	dir := t.TempDir()
	if got, want := nextBench(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Fatalf("empty dir: nextBench = %s, want %s", got, want)
	}
	for _, name := range []string{"BENCH_8.json", "BENCH_10.json", "BENCH_9.json", "BENCH_x.json", "BENCH_12.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := nextBench(dir), filepath.Join(dir, "BENCH_11.json"); got != want {
		t.Fatalf("nextBench = %s, want %s", got, want)
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

// TestSignedRankP checks the exact signed-rank p-value on small cases:
// with ten pairs there are 1,024 equally likely sign assignments.
func TestSignedRankP(t *testing.T) {
	for _, c := range []struct {
		d    []int64
		want float64
	}{
		{[]int64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, 1.0 / 1024},    // negative ranks sum to 0
		{[]int64{-5, -6, 7, 8, 9, 10, 11, 12, 13, 14}, 5.0 / 1024},  // ranks 1+2 = 3: five subsets sum to 3 or less
		{[]int64{-5, 6, 7, -8, 9, 10, 11, 12, 13, 14}, 10.0 / 1024}, // ranks 1+4 = 5: ten subsets
		{[]int64{-5, 6, 7, 8, -9, 10, 11, 12, 13, 14}, 14.0 / 1024}, // ranks 1+5 = 6: fourteen subsets
		{[]int64{3, 0, -3}, 0.5},                                    // the zero is dropped; -3 takes the mean rank 1.5
		{[]int64{0, 0}, 1},
	} {
		if got := signedRankP(c.d); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signedRankP(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

// TestGatePaired pins the quick gate's verdict over (parent, change)
// batches. The walls are ten pairs measured on a 2-vCPU host with the
// same binary on both sides: the second run was slower in 4 of them.
func TestGatePaired(t *testing.T) {
	parentWalls := []int64{590, 549, 584, 598, 584, 566, 489, 509, 527, 521}
	sameWalls := []int64{586, 634, 656, 571, 616, 523, 492, 489, 508, 495}
	rss := []int64{14643, 14700, 14600, 14650, 14680, 14610, 14720, 14590, 14660, 14630}
	add := func(runs []int64, d int64) []int64 {
		out := make([]int64, len(runs))
		for i, r := range runs {
			out[i] = r + d
		}
		return out
	}
	// slowerBy returns the parent's walls with d added, except that the
	// pairs in faster are 5 ms faster instead.
	slowerBy := func(d int64, faster ...int) []int64 {
		out := add(parentWalls, d)
		for _, i := range faster {
			out[i] = parentWalls[i] - 5
		}
		return out
	}
	parent := quickBatch{walls: parentWalls, rssKiB: rss}
	for _, c := range []struct {
		name   string
		change quickBatch
		fail   string // "" when the change passes
	}{
		{"identical batches", parent, ""},
		{"measured 4/6 split", quickBatch{walls: sameWalls, rssKiB: rss}, ""},
		{"faster in every pair", quickBatch{walls: add(parentWalls, -50), rssKiB: add(rss, -1024)}, ""},
		{"slower in 7 of 10", quickBatch{walls: slowerBy(50, 0, 1, 2), rssKiB: rss}, ""},
		{"slower in 8 of 10, faster in the closest", quickBatch{walls: slowerBy(50, 0, 1), rssKiB: rss}, "wall time: change larger in 8 of 10 pairs"},
		{"shifted 10/10", quickBatch{walls: add(parentWalls, 50), rssKiB: rss}, "wall time: change larger in 10 of 10 pairs"},
		{"bloated RSS", quickBatch{walls: sameWalls, rssKiB: add(rss, 4096)}, "peak RSS: change larger in 10 of 10 pairs"},
	} {
		err := gatePaired(parent, c.change)
		switch {
		case c.fail == "" && err != nil:
			t.Errorf("%s: gatePaired = %v, want a pass", c.name, err)
		case c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)):
			t.Errorf("%s: gatePaired = %v, want a failure naming %q", c.name, err, c.fail)
		}
	}
}
