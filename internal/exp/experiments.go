package exp

import (
	"fmt"
	"slices"
	"strings"

	"prodigy/internal/graph"
	"prodigy/internal/stats"
)

// Experiment is one named entry of the paper's evaluation: a driver and
// the tables it renders.
type Experiment struct {
	Name   string
	Tables func(h *Harness) ([]*stats.Table, error)
}

// tables adapts drivers returning one result each into an experiment's
// Tables function: one table per driver, in order.
func tables[R interface{ Table() *stats.Table }](drivers ...func(*Harness) (R, error)) func(*Harness) ([]*stats.Table, error) {
	return func(h *Harness) ([]*stats.Table, error) {
		var out []*stats.Table
		for _, d := range drivers {
			r, err := d(h)
			if err != nil {
				return nil, err
			}
			out = append(out, r.Table())
		}
		return out, nil
	}
}

// Experiments lists every experiment in the order prodigy-bench runs
// them when given no names.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", tables((*Harness).Table2)},
		{"fig2", tables((*Harness).Fig2)},
		{"fig4", tables((*Harness).Fig4)},
		{"fig12", tables((*Harness).Fig12)},
		{"fig13", tables((*Harness).Fig13)},
		{"fig14", tables((*Harness).Fig14)},
		{"fig15", tables((*Harness).Fig15)},
		{"fig16", tables((*Harness).Fig16)},
		{"fig17", tables((*Harness).Fig17)},
		{"fig18", tables((*Harness).Fig18)},
		{"fig19", tables((*Harness).Fig19)},
		{"table3", tables((*Harness).Table3)},
		{"ranged", tables((*Harness).RangedFraction)},
		{"softwarepf", tables((*Harness).SoftwarePF)},
		{"scalability", tables(func(h *Harness) (*ScalabilityResult, error) {
			// At tiny scale the study stops at 4 cores.
			var counts []int
			if h.Cfg.Scale == graph.ScaleTiny {
				counts = []int{1, 2, 4}
			}
			return h.Scalability(counts)
		})},
		{"ablations", tables((*Harness).AblationLookahead, (*Harness).AblationDropping,
			(*Harness).AblationRanged, (*Harness).AblationFillLevel)},
	}
}

// SelectExperiments resolves experiment names against Experiments, in
// the order given; no names selects them all. Every name is checked
// before any experiment runs, so a typo fails at once instead of after
// the experiments ahead of it.
func SelectExperiments(names []string) ([]Experiment, error) {
	all := Experiments()
	if len(names) == 0 {
		return all, nil
	}
	var out []Experiment
	var unknown []string
	for _, name := range names {
		i := slices.IndexFunc(all, func(e Experiment) bool { return e.Name == name })
		if i < 0 {
			unknown = append(unknown, fmt.Sprintf("%q", name))
			continue
		}
		out = append(out, all[i])
	}
	if len(unknown) > 0 {
		known := make([]string, len(all))
		for i, e := range all {
			known[i] = e.Name
		}
		return nil, fmt.Errorf("exp: unknown experiment %s (want one of %s)",
			strings.Join(unknown, ", "), strings.Join(known, " "))
	}
	return out, nil
}
