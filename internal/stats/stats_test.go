package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := Geomean([]float64{5}); g != 5 {
		t.Fatalf("geomean(5) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{0, -1}); g != 0 {
		t.Fatalf("geomean of non-positives = %v", g)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) = %v", m)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "workload", "speedup")
	tb.AddRow("pr-lj", 2.93)
	tb.AddRow("bfs-po", float32(1.5))
	tb.AddRow("count", 42)
	s := tb.String()
	for _, want := range []string{"Fig. X", "workload", "pr-lj", "2.930", "1.500", "42"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Columns align: every line has the same prefix width up to col 2.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

// Property: geomean of a list equals geomean of its reverse.
func TestQuickGeomeanOrderInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		var pos []float64
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) && x < 1e100 {
				pos = append(pos, x)
			}
		}
		rev := make([]float64, len(pos))
		for i, x := range pos {
			rev[len(pos)-1-i] = x
		}
		a, b := Geomean(pos), Geomean(rev)
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
