package workloads

import (
	"fmt"

	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/trace"
)

// memlatPC is the single static load site of every memlat chase.
const memlatPC uint32 = 990

// Memlat patterns. All three build a cyclic pointer chain over a single
// array and chase it serially, so each load's address depends on the
// previous load's data — the classic memlat discipline (lat_mem_rd,
// Intel MLC): with a serialized core, per-access latency is exposed
// directly instead of being hidden by overlap.
const (
	// MemlatChase visits the lines of the working set in a seeded random
	// cyclic order, defeating strided and next-line prefetching and (for
	// sets larger than a cache level) guaranteeing an LRU miss on every
	// access at that level.
	MemlatChase = "chase"
	// MemlatStride visits lines at a fixed byte stride (wrapping through
	// all residue cycles), the sequential-walk baseline.
	MemlatStride = "stride"
	// MemlatTLB touches one line per page in random page order, with the
	// in-page offset rotated per page so the lines themselves stay
	// L1-resident: with more pages than TLB entries, every access is a
	// TLB miss that hits in the L1 — isolating WalkLat.
	MemlatTLB = "tlb"
)

// MemlatConfig parameterizes one memlat microworkload.
type MemlatConfig struct {
	// Pattern is MemlatChase, MemlatStride, or MemlatTLB.
	Pattern string
	// WorkingSet is the chain footprint in bytes: a multiple of LineSize
	// (chase/stride) or of the page size (tlb). Size it against
	// cache.Config capacities to land the chase in a chosen level.
	WorkingSet int
	// StrideBytes is the visit stride for MemlatStride (default:
	// LineSize).
	StrideBytes int
	// Rounds is how many full traversals of the chain to emit (default
	// 8; round 1 is the cold warm-up).
	Rounds int
	// LineSize must match the simulated cache line (default 64).
	LineSize int
	// Seed drives the random permutations (default 42).
	Seed uint64
}

// memlatOrder returns the visit order of line indices for cfg's pattern
// over n lines. The order is a single cycle covering every line exactly
// once.
func memlatOrder(cfg MemlatConfig, n int) []int {
	order := make([]int, n)
	switch cfg.Pattern {
	case MemlatStride:
		s := cfg.StrideBytes / cfg.LineSize
		if s <= 0 {
			s = 1
		}
		s %= n
		if s == 0 {
			s = 1
		}
		// Concatenate the residue cycles of step s so the chain still
		// covers all n lines when gcd(s, n) > 1.
		g := gcd(s, n)
		k := 0
		for off := 0; off < g; off++ {
			p := off
			for {
				order[k] = p
				k++
				p = (p + s) % n
				if p == off {
					break
				}
			}
		}
	default: // MemlatChase, MemlatTLB: seeded Fisher-Yates permutation
		for i := range order {
			order[i] = i
		}
		r := graph.NewRand(cfg.Seed)
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BuildMemlat constructs a memlat pointer-chase microworkload: a cyclic
// chain of line-aligned pointers over one array, chased serially by a
// single core for cfg.Rounds traversals. Used by the latency-calibration
// sweep (internal/exp) to pin the Table-I timing contract; see
// EXPERIMENTS.md.
//
// The DIG registration (a self trav edge on "chain") is hand-written and
// intentionally outside the compiler frontend's reach: the traversal is
// an address-valued pointer chase (`cur = chain[f(cur)]`), not a ranged
// loop nest over index-valued arrays, so the Fig. 8 analyses cannot
// derive it from the kernel loops.
//
//lint:allow dig-drift pointer-chase traversal (address-valued loads) is not expressible as a ranged loop nest in the mini-IR
func BuildMemlat(cfg MemlatConfig) (*Workload, error) {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	switch cfg.Pattern {
	case MemlatChase, MemlatStride, MemlatTLB:
	default:
		return nil, fmt.Errorf("memlat: unknown pattern %q", cfg.Pattern)
	}
	grain := cfg.LineSize
	if cfg.Pattern == MemlatTLB {
		grain = memspace.PageSize
	}
	if cfg.WorkingSet < grain || cfg.WorkingSet%grain != 0 {
		return nil, fmt.Errorf("memlat(%s): working set %d is not a positive multiple of %d",
			cfg.Pattern, cfg.WorkingSet, grain)
	}
	n := cfg.WorkingSet / grain

	sp := memspace.New()
	if err := sp.Fit("chain", 8, cfg.WorkingSet/8); err != nil {
		return nil, fmt.Errorf("memlat(%s): working set %d: %w", cfg.Pattern, cfg.WorkingSet, err)
	}
	chain := sp.AllocU64("chain", cfg.WorkingSet/8)

	// lineElem maps a line index in the visit order to the element index
	// holding that line's pointer.
	lineElem := func(i int) int {
		if cfg.Pattern == MemlatTLB {
			// One line per page; rotate the in-page offset so consecutive
			// pages map to different L1 sets and the lines themselves fit
			// in the L1 — only the translations thrash.
			return (i*memspace.PageSize + i*cfg.LineSize%memspace.PageSize) / 8
		}
		return i * cfg.LineSize / 8
	}
	order := memlatOrder(cfg, n)
	for k, line := range order {
		next := order[(k+1)%n]
		chain.Data[lineElem(line)] = chain.Addr(lineElem(next))
	}
	start := chain.Addr(lineElem(order[0]))

	b := dig.NewBuilder()
	b.RegisterNode("chain", chain.BaseAddr, uint64(cfg.WorkingSet/8), 8, 0)
	b.RegisterTravEdge(chain.BaseAddr, chain.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(chain.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		return nil, err
	}

	run := func(tg *trace.Gen) {
		cur := start
		for r := 0; r < cfg.Rounds; r++ {
			for k := 0; k < n; k++ {
				tg.Load(0, memlatPC, cur)
				cur = chain.Data[(cur-chain.BaseAddr)/8]
			}
			// Bound trace buffering; with one core the barrier releases
			// immediately and each access's latency is unaffected.
			tg.Barrier()
		}
	}

	verify := func() error {
		cur := start
		seen := make(map[uint64]bool, n)
		for k := 0; k < n; k++ {
			if seen[cur] {
				return fmt.Errorf("memlat: chain revisits %#x after %d of %d steps", cur, k, n)
			}
			seen[cur] = true
			cur = chain.Data[(cur-chain.BaseAddr)/8]
		}
		if cur != start {
			return fmt.Errorf("memlat: chain is not a single %d-cycle (ended at %#x, want %#x)", n, cur, start)
		}
		return nil
	}

	return &Workload{
		Name:   fmt.Sprintf("memlat-%s-%dK", cfg.Pattern, cfg.WorkingSet/1024),
		Space:  sp,
		DIG:    d,
		Cores:  1,
		Run:    run,
		Verify: verify,
	}, nil
}
