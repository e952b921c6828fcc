package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prodigy/internal/core"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
)

// refRun is the per-cycle stepping loop that Machine.Run replaced with the
// wakeup scheduler. It is retained verbatim (minus interrupt polling, which
// the tests never arm) as the oracle for the equivalence check below: every
// core is stepped at every visited cycle, whether it is due or not. The
// scheduler's correctness argument — stepping a core before its reported
// wakeup changes no state — makes the two loops produce identical results;
// this file is what holds that claim to account.
func refRun(m *Machine) (Result, error) {
	now := int64(0)
	for {
		m.processEvents(now)
		m.now = now

		// Barrier release: if every unfinished core is parked, unpark them
		// before stepping so they proceed this cycle.
		if refAllActiveParked(m) {
			for _, c := range m.cores {
				if c.AtBarrier() {
					c.ReleaseBarrier()
				}
			}
		}

		next := farFuture
		allDone := true
		for _, c := range m.cores {
			n := c.Step(now)
			if !c.Done() {
				allDone = false
			}
			if n < next {
				next = n
			}
		}
		// Every core has attributed its cycles up to now; intervals ending
		// at or before now are complete and can be flushed.
		m.cfg.Obs.Tick(now)
		if allDone {
			break
		}
		if refAllActiveParked(m) {
			// Stepping parked the last active core; release next cycle.
			next = now + 1
		}
		if len(m.events) > 0 && m.events[0].ready < next {
			next = m.events[0].ready
		}
		if next <= now {
			next = now + 1
		}
		if next >= farFuture {
			return m.abort(now, fmt.Errorf("sim: %w at cycle %d", ErrDeadlock, now))
		}
		now = next
		if now > m.cfg.MaxCycles {
			return m.abort(now, fmt.Errorf("sim: %w (limit %d)", ErrMaxCycles, m.cfg.MaxCycles))
		}
	}

	res := m.collect(now)
	if ferr := m.cfg.Obs.Finish(now); ferr != nil {
		return res, fmt.Errorf("sim: observability export: %w", ferr)
	}
	return res, nil
}

// refAllActiveParked reports whether at least one core is unfinished and
// all unfinished cores sit at the barrier (the reference loop's barrier
// scan; the scheduler replaces it with the parked/done counters).
func refAllActiveParked(m *Machine) bool {
	active := 0
	for _, c := range m.cores {
		if c.Done() {
			continue
		}
		if !c.AtBarrier() {
			return false
		}
		active++
	}
	return active > 0
}

// refOp is one recorded generator call, replayed identically into both
// machines' instruction streams.
type refOp struct {
	kind  trace.Kind
	core  int
	pc    uint32
	addr  uint64
	taken bool
	dep   bool
	n     int
}

const refBarrierOp = trace.Kind(200) // refOp marker, not a real trace kind

// refProgram generates a random multi-core program over the given arrays:
// a mix of sequential and data-dependent indirect loads, stores, atomics,
// branches (some load-dependent), int/FP filler, software prefetches, and
// occasional all-core barriers. The same op list drives both runs.
func refProgram(rng *rand.Rand, cores, n int, idx *memspace.U32, data *memspace.U32) []refOp {
	nops := 200 + rng.Intn(1200)
	ops := make([]refOp, 0, nops)
	for i := 0; i < nops; i++ {
		c := rng.Intn(cores)
		switch r := rng.Intn(100); {
		case r < 35: // indirect pair: load idx[i], then data[idx[i]]
			j := rng.Intn(n)
			v := int(idx.Data[j])
			ops = append(ops, refOp{kind: trace.Load, core: c, pc: 1, addr: idx.Addr(j)})
			ops = append(ops, refOp{kind: trace.Load, core: c, pc: 2, addr: data.Addr(v)})
		case r < 55: // sequential-ish load
			ops = append(ops, refOp{kind: trace.Load, core: c, pc: 3, addr: data.Addr(i % n)})
		case r < 62:
			ops = append(ops, refOp{kind: trace.Store, core: c, pc: 4, addr: data.Addr(rng.Intn(n))})
		case r < 66:
			ops = append(ops, refOp{kind: trace.Atomic, core: c, pc: 5, addr: data.Addr(rng.Intn(n))})
		case r < 78:
			ops = append(ops, refOp{kind: trace.Branch, core: c, pc: 6,
				taken: rng.Intn(2) == 0, dep: rng.Intn(2) == 0})
		case r < 88:
			ops = append(ops, refOp{kind: trace.Int, core: c, pc: 7, n: 1 + rng.Intn(4)})
		case r < 94:
			ops = append(ops, refOp{kind: trace.FP, core: c, pc: 8, n: 1 + rng.Intn(3)})
		case r < 98:
			ops = append(ops, refOp{kind: trace.SoftPrefetch, core: c, pc: 9, addr: data.Addr(rng.Intn(n))})
		default:
			ops = append(ops, refOp{kind: refBarrierOp})
		}
	}
	return ops
}

func refReplay(ops []refOp) func(*trace.Gen) {
	return func(g *trace.Gen) {
		for _, op := range ops {
			switch op.kind {
			case trace.Load:
				g.Load(op.core, op.pc, op.addr)
			case trace.Store:
				g.Store(op.core, op.pc, op.addr)
			case trace.Atomic:
				g.Atomic(op.core, op.pc, op.addr)
			case trace.Branch:
				g.Branch(op.core, op.pc, op.taken, op.dep)
			case trace.Int:
				g.Ops(op.core, op.pc, op.n)
			case trace.FP:
				g.FOps(op.core, op.pc, op.n)
			case trace.SoftPrefetch:
				g.SoftPrefetch(op.core, op.pc, op.addr)
			case refBarrierOp:
				g.Barrier()
			}
		}
	}
}

// refSpace builds the indirect-traversal memory image deterministically
// from seed; called once per machine so both runs see identical data.
func refSpace(t *testing.T, seed int64, n int) (*memspace.Space, *memspace.U32, *memspace.U32, *dig.DIG) {
	t.Helper()
	space := memspace.New()
	idx := space.AllocU32("idx", n)
	data := space.AllocU32("data", n)
	r := rand.New(rand.NewSource(seed))
	for i := range idx.Data {
		idx.Data[i] = uint32(r.Intn(n))
	}
	b := dig.NewBuilder()
	b.RegisterNode("idx", idx.BaseAddr, uint64(n), 4, 0)
	b.RegisterNode("data", data.BaseAddr, uint64(n), 4, 1)
	b.RegisterTravEdge(idx.BaseAddr, data.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(idx.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return space, idx, data, d
}

// TestSchedulerMatchesReferenceStepper runs randomized small workloads
// through both loops — the event-driven wakeup scheduler (Machine.Run) and
// the retained per-cycle reference stepper (refRun) — and requires the
// complete Result to match exactly: cycle count, per-core and aggregate
// CPI stacks, retired counts, cache/DRAM/engine counters, and the full
// prefetch-lifecycle quality account (PFQ/PFQAgg). Trials sweep core
// counts, prefetcher schemes (none, stride, Prodigy), MSHR caps, and
// barrier-laden random instruction mixes.
func TestSchedulerMatchesReferenceStepper(t *testing.T) {
	schemes := []struct {
		name string
		fac  func(d *dig.DIG) prefetch.Factory
	}{
		{"none", func(*dig.DIG) prefetch.Factory { return nil }},
		{"stride", func(*dig.DIG) prefetch.Factory { return prefetch.Stride(prefetch.DefaultStrideConfig()) }},
		{"prodigy", func(d *dig.DIG) prefetch.Factory { return core.New(d, core.DefaultConfig()) }},
	}
	for trial := 0; trial < 12; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		cores := []int{1, 2, 4}[rng.Intn(3)]
		n := 256 << rng.Intn(4)
		scheme := schemes[trial%len(schemes)]
		mshrs := []int{4, 16, 128}[rng.Intn(3)]

		t.Run(fmt.Sprintf("trial%d_%s_c%d", trial, scheme.name, cores), func(t *testing.T) {
			// The program is generated once (from the first machine's data,
			// which the second machine reproduces bit-for-bit) and replayed
			// into both runs.
			var ops []refOp
			exec := func(drive func(*Machine) (Result, error)) Result {
				space, idx, data, d := refSpace(t, seed, n)
				if ops == nil {
					ops = refProgram(rng, cores, n, idx, data)
				}
				cfg := Default(cores)
				cfg.Prefetcher = scheme.fac(d)
				cfg.PrefetchMSHRs = mshrs
				gen := trace.NewGen(cores, 1<<20)
				m := mustMachine(t, cfg, space, gen)
				wait := gen.Run(refReplay(ops))
				res, err := drive(m)
				gen.Abort()
				if err != nil {
					t.Fatal(err)
				}
				if werr := wait(); werr != nil {
					t.Fatal(werr)
				}
				return res
			}

			got := exec((*Machine).Run)
			want := exec(refRun)
			if got.Cycles != want.Cycles {
				t.Fatalf("cycles: scheduler %d vs reference %d", got.Cycles, want.Cycles)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results diverged:\nscheduler: %+v\nreference: %+v", got, want)
			}
			if got.Agg.Retired == 0 {
				t.Fatal("trial retired nothing; program generation is broken")
			}
		})
	}
}
