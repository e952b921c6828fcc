package trace

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestInstrSize(t *testing.T) {
	// The encoding is deliberately compact; regressions here blow up epoch
	// buffering memory (8 bytes per buffered dynamic instruction).
	var in Instr
	if sz := int(unsafeSizeof(in)); sz != 8 {
		t.Fatalf("Instr size = %d bytes, want 8", sz)
	}
}

// unsafeSizeof avoids importing unsafe in more than one place.
func unsafeSizeof(in Instr) uintptr { return sizeofInstr(in) }

func TestEmitAndCollect(t *testing.T) {
	out := Collect(2, func(g *Gen) {
		g.Load(0, 1, 0x100)
		g.Store(1, 2, 0x200)
		g.Branch(0, 3, true, true)
		g.Ops(1, 4, 3)
		g.Barrier()
		g.Atomic(0, 5, 0x300)
	})
	if len(out[0]) != 4 { // load, branch, barrier, atomic
		t.Fatalf("core0 len = %d, want 4", len(out[0]))
	}
	if len(out[1]) != 5 { // store, 3 ops, barrier
		t.Fatalf("core1 len = %d, want 5", len(out[1]))
	}
	if out[0][0].Kind != Load || out[0][0].Addr != 0x100 {
		t.Errorf("core0[0] = %+v", out[0][0])
	}
	if !out[0][1].Taken() || !out[0][1].LoadDep() {
		t.Errorf("branch flags = %+v", out[0][1])
	}
	if out[0][2].Kind != Barrier || out[1][4].Kind != Barrier {
		t.Error("barriers missing")
	}
	if out[0][3].Kind != Atomic {
		t.Errorf("core0[3] = %+v", out[0][3])
	}
}

// TestLimitsRoundTrip emits through every emitter at the edges of the
// encoding — the highest address and PC it holds, both branch flags —
// and checks that each field comes back unchanged.
func TestLimitsRoundTrip(t *testing.T) {
	const maxAddr, maxPC = 1<<32 - 1, 1<<16 - 1
	out := Collect(1, func(g *Gen) {
		g.Load(0, maxPC, maxAddr)
		g.Store(0, maxPC, maxAddr)
		g.Atomic(0, maxPC, maxAddr)
		g.SoftPrefetch(0, maxPC, maxAddr)
		g.Branch(0, maxPC, true, true)
		g.Branch(0, maxPC, false, true)
		g.Branch(0, maxPC, true, false)
		g.Ops(0, maxPC, 1)
		g.FOps(0, maxPC, 1)
		g.Barrier()
	})[0]
	want := []Instr{
		{Kind: Load, PC: maxPC, Addr: maxAddr},
		{Kind: Store, PC: maxPC, Addr: maxAddr},
		{Kind: Atomic, PC: maxPC, Addr: maxAddr},
		{Kind: SoftPrefetch, PC: maxPC, Addr: maxAddr},
		{Kind: Branch, PC: maxPC, Flags: TakenFlag | LoadDepFlag},
		{Kind: Branch, PC: maxPC, Flags: LoadDepFlag},
		{Kind: Branch, PC: maxPC, Flags: TakenFlag},
		{Kind: Int, PC: maxPC},
		{Kind: FP, PC: maxPC},
		{Kind: Barrier},
	}
	if len(out) != len(want) {
		t.Fatalf("got %d instructions, want %d: %+v", len(out), len(want), out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("instr %d = %+v, want %+v", i, out[i], want[i])
		}
	}
}

// TestOutOfRangeRefused checks that an address or PC the encoding cannot
// hold fails the run with an error naming the value, and that nothing
// truncated reaches the stream: the consumer sees exactly the valid
// instructions emitted before the bad one.
func TestOutOfRangeRefused(t *testing.T) {
	cases := []struct {
		name, want string
		emit       func(g *Gen)
	}{
		{"load address", "0x100000000", func(g *Gen) { g.Load(0, 1, 1<<32) }},
		{"store address", "0x100000005", func(g *Gen) { g.Store(0, 1, 1<<32+5) }},
		{"atomic address", "0xffffffffffffffff", func(g *Gen) { g.Atomic(0, 1, 1<<64-1) }},
		{"softpf address", "0x100000000", func(g *Gen) { g.SoftPrefetch(0, 1, 1<<32) }},
		{"load pc", "pc 65536", func(g *Gen) { g.Load(0, 1<<16, 0x40) }},
		{"branch pc", "pc 65536", func(g *Gen) { g.Branch(0, 1<<16, true, true) }},
		{"ops pc", "pc 70000", func(g *Gen) { g.Ops(0, 70000, 2) }},
		{"fops pc", "pc 65536", func(g *Gen) { g.FOps(0, 1<<16, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGen(1, 0)
			wait := g.Run(func(g *Gen) {
				g.Load(0, 7, 0x40)
				g.Barrier()
				g.Load(0, 7, 0x80)
				c.emit(g)
				g.Load(0, 7, 0xc0) // never reached
			})
			defer g.Abort()
			var got []Instr
			r := g.Reader(0)
			for r.Next() {
				got = append(got, r.In)
			}
			err := wait()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
			want := []Instr{{Kind: Load, PC: 7, Addr: 0x40}, {Kind: Barrier}, {Kind: Load, PC: 7, Addr: 0x80}}
			if len(got) != len(want) {
				t.Fatalf("stream = %+v, want %+v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("instr %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestConcurrentProducerConsumer streams epochs through several
// generators at once, each drained on its own goroutine, as parallel
// cells do: they share the chunk pool, so a chunk recycled by one must
// never show up in another's stream.
func TestConcurrentProducerConsumer(t *testing.T) {
	const n, gens = 100000, 4
	var wg sync.WaitGroup
	for k := 0; k < gens; k++ {
		base := uint64(k) << 28 // each generator's own address range
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewGen(1, 0)
			wait := g.Run(func(g *Gen) {
				for i := 0; i < n; i++ {
					g.Load(0, 1, base+uint64(i))
					if i%1000 == 999 {
						g.Barrier()
					}
				}
			})
			defer g.Abort()
			r := g.Reader(0)
			var loads, barriers int
			next := base
			for r.Next() {
				switch r.In.Kind {
				case Load:
					if uint64(r.In.Addr) != next {
						t.Errorf("generator %d: got %#x, want %#x", k, r.In.Addr, next)
						return
					}
					next++
					loads++
				case Barrier:
					barriers++
				}
			}
			if err := wait(); err != nil {
				t.Error(err)
			}
			if loads != n || barriers != n/1000 {
				t.Errorf("generator %d: %d loads, %d barriers, want %d, %d", k, loads, barriers, n, n/1000)
			}
		}()
	}
	wg.Wait()
}

func TestStrictAlternation(t *testing.T) {
	// Producer and consumer must never run concurrently. The producer
	// bumps a deliberately unsynchronized counter after each Barrier
	// returns; when the consumer reads it at barrier k, the producer is
	// still parked inside Barrier k's handoff, so the value is exactly
	// k-1. Any overlap is both a wrong value here and a data race under
	// -race — the same discipline that lets workload kernels write
	// memspace arrays the simulator reads.
	const epochs, loads = 50, 50
	g := NewGen(1, 1)
	epoch := 0 // plain shared int: the handoff must order all accesses
	wait := g.Run(func(g *Gen) {
		for e := 0; e < epochs; e++ {
			for i := 0; i < loads; i++ {
				g.Load(0, 1, uint64(i))
			}
			g.Barrier()
			epoch = e + 1
		}
	})
	r := g.Reader(0)
	count, barriers := 0, 0
	for r.Next() {
		count++
		if r.In.Kind == Barrier {
			barriers++
			if epoch != barriers-1 {
				t.Fatalf("at barrier %d producer had finished epoch %d, want %d",
					barriers, epoch, barriers-1)
			}
		}
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if count != epochs*(loads+1) {
		t.Fatalf("count = %d, want %d", count, epochs*(loads+1))
	}
}

func TestAbortUnblocksProducer(t *testing.T) {
	// A consumer that abandons the run mid-trace ends the producer where
	// it is suspended: the kernel executes nothing past the Barrier it was
	// parked in, and Abort returns without waiting for the rest of it.
	g := NewGen(1, 1)
	epochs, finished := 0, false
	wait := g.Run(func(g *Gen) {
		for e := 0; e < 100; e++ {
			for i := 0; i < 10; i++ {
				g.Load(0, 1, uint64(i))
			}
			g.Barrier()
			epochs++
		}
		finished = true
	})
	r := g.Reader(0)
	for i := 0; i < 5; i++ { // consume a few instructions, then walk away
		r.Next()
	}
	g.Abort()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if epochs != 0 || finished {
		t.Fatalf("producer ran on after Abort: %d epochs past the first barrier, finished %v", epochs, finished)
	}
	// Draining the leftover chunk terminates instead of hanging: the
	// aborted streams are closed and publish nothing further.
	for r.Next() {
	}
}

// TestFinishedGenHoldsNoBuffers checks that after Abort — which the
// simulator calls on every exit path — a generator keeps no chunk
// buffers and no coroutine, whether its consumer drained every stream or
// walked away early: a finished generator that is still referenced must
// not pin an epoch's worth of recycled chunks.
func TestFinishedGenHoldsNoBuffers(t *testing.T) {
	for _, consume := range []int{-1, 5} { // everything; a few, then abort
		g := NewGen(1, 1)
		wait := g.Run(func(g *Gen) {
			for e := 0; e < 20; e++ {
				for i := 0; i < 3*chunkSize; i++ {
					g.Load(0, 1, uint64(i))
				}
				g.Barrier()
			}
		})
		r := g.Reader(0)
		for i := 0; i != consume && r.Next(); i++ {
		}
		g.Abort()
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		for r.Next() { // drain what an early abort left
		}
		held := len(g.queues[0])
		if g.bufs[0] != nil || r.cur != nil {
			held++
		}
		if held != 0 {
			t.Errorf("consume %d: finished generator holds %d chunk buffers, want 0", consume, held)
		}
		if g.next != nil || g.stop != nil || g.yield != nil {
			t.Errorf("consume %d: finished generator still holds its coroutine", consume)
		}
	}
}

func TestProducerPanicBecomesError(t *testing.T) {
	g := NewGen(1, 1)
	wait := g.Run(func(g *Gen) {
		g.Load(0, 1, 1)
		g.Barrier()
		panic("kernel bug")
	})
	r := g.Reader(0)
	for r.Next() {
	}
	err := wait()
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("producer panic not surfaced: %v", err)
	}
}

func TestReaderExhaustedStaysExhausted(t *testing.T) {
	g := NewGen(1, 0)
	g.Load(0, 1, 1)
	g.Close()
	r := g.Reader(0)
	if !r.Next() {
		t.Fatal("expected one instruction")
	}
	for i := 0; i < 3; i++ {
		if r.Next() {
			t.Fatal("reader should stay exhausted")
		}
	}
}

// Property: Collect preserves per-core emission order for arbitrary
// interleavings of cores.
func TestQuickOrderPreserved(t *testing.T) {
	f := func(cores []uint8) bool {
		const ncores = 3
		out := Collect(ncores, func(g *Gen) {
			for i, c := range cores {
				g.Load(int(c)%ncores, 1, uint64(i))
			}
		})
		// Addresses within each core must be strictly increasing.
		for _, seq := range out {
			prev := int64(-1)
			for _, in := range seq {
				if int64(in.Addr) <= prev {
					return false
				}
				prev = int64(in.Addr)
			}
		}
		total := 0
		for _, seq := range out {
			total += len(seq)
		}
		return total == len(cores)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{Int, FP, Load, Store, Atomic, Branch, SoftPrefetch, Barrier}
	want := []string{"int", "fp", "load", "store", "atomic", "branch", "softpf", "barrier"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
	if Kind(200).String() != "?" {
		t.Error("unknown kind should be ?")
	}
}

// BenchmarkEmitDrain measures the trace's cost per instruction from both
// ends, as a simulation pays it: a kernel under Run emits a fixed mix of
// loads, stores, atomics, branches and ALU operations across 8 cores in
// runs of 64, with a barrier every 64Ki instructions, and the consumer
// drains each core's epoch up to its barrier before any reader asks for
// the next. One op is one emitted instruction; the barrier entries are
// part of the cost, not the count.
func BenchmarkEmitDrain(b *testing.B) {
	const cores, epoch = 8, 1 << 16
	b.ReportAllocs()
	g := NewGen(cores, 0)
	wait := g.Run(func(g *Gen) {
		for k := 0; k < b.N; k++ {
			c := (k >> 6) % cores
			a := uint64(k&0xffff) << 2
			switch k & 7 {
			case 0, 1, 2:
				g.Load(c, 100, a)
			case 3:
				g.Branch(c, 101, k&8 != 0, true)
			case 4:
				g.Store(c, 102, a)
			case 5:
				g.Ops(c, 103, 1)
			case 6:
				g.Atomic(c, 104, a)
			case 7:
				g.FOps(c, 105, 1)
			}
			if k%epoch == epoch-1 {
				g.Barrier()
			}
		}
	})
	defer g.Abort()
	var sink uint32
	live := make([]*Reader, cores)
	for c := range live {
		live[c] = g.Reader(c)
	}
	for len(live) > 0 {
		next := live[:0]
		for _, r := range live {
			for r.Next() {
				if r.In.Kind == Barrier {
					next = append(next, r)
					break
				}
				sink += r.In.Addr
			}
		}
		live = next
	}
	if err := wait(); err != nil {
		b.Fatal(err)
	}
	_ = sink
}
