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
	"log"

	"prodigy"
)

const n = 1 << 15

func main() {
	baseline := simulate(false)
	withPro := simulate(true)
	fmt.Printf("baseline: %8d cycles (DRAM-stall %4.1f%%)\n",
		baseline.Cycles, 100*frac(baseline, prodigy.DRAMStall))
	fmt.Printf("prodigy:  %8d cycles (DRAM-stall %4.1f%%)\n",
		withPro.Cycles, 100*frac(withPro, prodigy.DRAMStall))
	fmt.Printf("speedup:  %.2fx\n", float64(baseline.Cycles)/float64(withPro.Cycles))
}

func frac(r prodigy.SimResult, k prodigy.StallKind) float64 {
	return float64(r.Agg.Cycles[k]) / float64(r.Agg.Total())
}

func simulate(withProdigy bool) prodigy.SimResult {
	space := prodigy.NewSpace()
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
	b := prodigy.NewDIGBuilder()
	b.RegisterNode("idx", idx.BaseAddr, n, 4, 0)
	b.RegisterNode("data", data.BaseAddr, n, 4, 1)
	b.RegisterTravEdge(idx.BaseAddr, data.BaseAddr, prodigy.SingleValued)
	b.RegisterTrigEdge(idx.BaseAddr, prodigy.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	machine := prodigy.DefaultMachine(1)
	if withProdigy {
		machine.Prefetcher = prodigy.NewProdigy(d, prodigy.DefaultProdigyConfig())
	}

	// The kernel: load idx[i], load data[idx[i]], branch on the value
	// (the data-dependent branch that makes irregular kernels
	// latency-bound, Section II).
	res, err := prodigy.RunMachine(machine, space, prodigy.NewTraceGen(1), func(g *prodigy.TraceGen) {
		for i := 0; i < n; i++ {
			v := idx.Data[i]
			g.Load(0, 1, idx.Addr(i))
			g.Load(0, 2, data.Addr(int(v)))
			g.Branch(0, 3, v%2 == 0, true)
			g.Ops(0, 4, 1)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
