// Quickstart: program the Prodigy prefetcher for a hand-written irregular
// kernel and measure the speedup over a non-prefetching machine.
//
// The kernel is the paper's single-valued indirection example (Fig. 5c):
//
//	for i := 0; i < n; i++ { sum += data[idx[i]] }
//
// We allocate the two arrays in a simulated address space, register the
// DIG exactly as the annotated source of Fig. 6 would (registerNode,
// registerTravEdge, registerTrigEdge), emit the kernel's instruction
// stream, and run it twice — without and with Prodigy.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/sim"
	"prodigy/internal/trace"
)

const n = 1 << 15

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	var cycles [2]int64
	for i, name := range []string{"baseline:", "prodigy: "} {
		res, err := simulate(i == 1)
		if err != nil {
			return err
		}
		cycles[i] = res.Cycles
		fmt.Fprintf(w, "%s %8d cycles (DRAM-stall %4.1f%%)\n", name, res.Cycles,
			100*float64(res.Agg.Cycles[cpu.DRAMStall])/float64(res.Agg.Total()))
	}
	fmt.Fprintf(w, "speedup:  %.2fx\n", float64(cycles[0])/float64(cycles[1]))
	return nil
}

func simulate(withProdigy bool) (sim.Result, error) {
	space := memspace.New()
	idx := space.AllocU32("idx", n)
	data := space.AllocU32("data", n)

	// A deterministic scramble makes the indirect stream cache-hostile.
	r := uint64(1)
	for i := range idx.Data {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		idx.Data[i] = uint32(r % n)
	}

	// Register the DIG: idx -w0-> data, trigger on idx.
	b := dig.NewBuilder()
	b.RegisterNode("idx", idx.BaseAddr, n, 4, 0)
	b.RegisterNode("data", data.BaseAddr, n, 4, 1)
	b.RegisterTravEdge(idx.BaseAddr, data.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(idx.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		return sim.Result{}, err
	}

	machine := sim.Default(1)
	if withProdigy {
		machine.Prefetcher = core.New(d, core.DefaultConfig())
	}

	// The kernel: load idx[i], load data[idx[i]], branch on the value
	// (the data-dependent branch that makes irregular kernels
	// latency-bound, Section II).
	return sim.Run(machine, space, trace.NewGen(1, 0), func(g *trace.Gen) {
		for i := 0; i < n; i++ {
			v := idx.Data[i]
			g.Load(0, 1, idx.Addr(i))
			g.Load(0, 2, data.Addr(int(v)))
			g.Branch(0, 3, v%2 == 0, true)
			g.Ops(0, 4, 1)
		}
	})
}
