package exp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/lifecycle.golden")

// TestLifecycleGolden pins, for every quick cell under every scheme, the
// cycle count and the integer fields of the machine's prefetch-lifecycle
// account (sim.Result.PFQAgg) against testdata/lifecycle.golden. Run with
// -update to rewrite the golden after an intended change of the account.
func TestLifecycleGolden(t *testing.T) {
	var cells []Cell
	for _, c := range sharedHarness.GraphCells(true) {
		for _, s := range Schemes() {
			cells = append(cells, Cell{Algo: c.Algo, Dataset: c.Dataset, Scheme: s})
		}
	}
	runs, err := sharedHarness.RunGrid(cells)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range runs {
		q := r.Res.PFQAgg
		fmt.Fprintf(&b, "%s cycles=%d issued=%d fills=%d fills_mem=%d timely=%d timely_mem=%d late=%d late_mem=%d"+
			" evicted_unused=%d redundant=%d dropped=%d demand_misses=%d\n",
			cells[i], r.Res.Cycles, q.Issued, q.Fills, q.FillsMem, q.Timely, q.TimelyMem, q.Late, q.LateMem,
			q.EvictedUnused, q.Redundant, q.Dropped, q.DemandMisses)
	}

	const path = "testdata/lifecycle.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("lifecycle account differs from the golden at line %d:\ngot  %q\nwant %q", i+1, g, w)
		}
	}
}
