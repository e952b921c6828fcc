package exp

import (
	"os"
	"strings"
	"testing"
)

// TestQuickTablesGolden renders every experiment on the shared quick
// harness, the configuration prodigy-bench -quick runs, and compares the
// tables with testdata/quick_tables.golden: prodigy-bench -quick's
// stdout without its "(name took …)" lines. A reduction that reads the
// wrong run of its sweep changes a number here.
func TestQuickTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range Experiments() {
		tables, err := e.Tables(sharedHarness)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tb := range tables {
			b.WriteString(tb.String() + "\n")
		}
		b.WriteString("\n")
	}
	want, err := os.ReadFile("testdata/quick_tables.golden")
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("quick tables differ from the golden at line %d:\ngot  %q\nwant %q", i+1, g, w)
		}
	}
}

// TestSelectExperiments checks name resolution: no names select every
// experiment once, names keep their given order, and every unknown name
// is reported together.
func TestSelectExperiments(t *testing.T) {
	all, err := SelectExperiments(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
	}
	if len(all) != 16 {
		t.Errorf("%d experiments, want 16", len(all))
	}
	got, err := SelectExperiments([]string{"fig17", "table2"})
	if err != nil || len(got) != 2 || got[0].Name != "fig17" || got[1].Name != "table2" {
		t.Errorf("SelectExperiments(fig17, table2) = %v, %v", got, err)
	}
	_, err = SelectExperiments([]string{"fig2", "fgi2", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), `"fgi2", "nosuch"`) {
		t.Errorf("unknown names: error %v, want both named", err)
	}
}
