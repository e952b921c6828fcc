package graph

import "testing"

var benchSink *Graph

// BenchmarkPaperDatasets rebuilds, bypassing the memo, the four variants
// that the paper sweep loads for po and lj at ScaleSmall: base, undirected,
// weighted and CSC. Every process that runs the sweep pays this once.
func BenchmarkPaperDatasets(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		for _, name := range []string{"po", "lj"} {
			g := lookup(name).build(ScaleSmall)
			u := g.Undirected()
			benchSink = weighted(u)
			benchSink = withCSC(g)
		}
	}
}
