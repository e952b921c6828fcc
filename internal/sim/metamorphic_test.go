package sim

import (
	"reflect"
	"testing"

	"prodigy/internal/core"
	"prodigy/internal/dig"
	"prodigy/internal/workloads"
)

// TestProdigyEmptyDIGIsNone is a metamorphic relation from the paper's
// own ablation: Prodigy programmed with an empty DIG has nothing to
// trigger on, so every quick cell must give the result of running
// without a prefetcher, field for field. Only the scheme's name in the
// prefetch-quality accounts and its own counters (SchemeStats) differ.
func TestProdigyEmptyDIGIsNone(t *testing.T) {
	for _, algo := range workloads.AllAlgos {
		datasets := []string{""}
		if workloads.IsGraphAlgo(algo) {
			datasets = []string{"po", "lj"}
		}
		for _, ds := range datasets {
			none := runQuickCell(t, algo, ds, 0, func(c *Config) { c.Prefetcher = nil })
			empty := runQuickCell(t, algo, ds, 0, func(c *Config) {
				c.Prefetcher = core.New(&dig.DIG{}, core.DefaultConfig())
			})
			for _, r := range []*Result{&none, &empty} {
				r.SchemeStats = nil
				r.PFQAgg.Scheme = ""
				for i := range r.PFQ {
					r.PFQ[i].Scheme = ""
				}
			}
			if !reflect.DeepEqual(none, empty) {
				t.Errorf("%s-%s: Prodigy with an empty DIG differs from no prefetcher:\nnone  %+v\nempty %+v",
					algo, ds, none, empty)
			}
		}
	}
}
