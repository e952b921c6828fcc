package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestInstrSize(t *testing.T) {
	// The encoding is deliberately compact; regressions here blow up epoch
	// buffering memory.
	var in Instr
	if sz := int(unsafeSizeof(in)); sz != 16 {
		t.Fatalf("Instr size = %d bytes, want 16", sz)
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

func TestConcurrentProducerConsumer(t *testing.T) {
	const n = 100000
	g := NewGen(1, 8192)
	wait := g.Run(func(g *Gen) {
		for i := 0; i < n; i++ {
			g.Load(0, 1, uint64(i))
			if i%1000 == 999 {
				g.Barrier()
			}
		}
	})
	r := g.Reader(0)
	var loads, barriers int
	prev := int64(-1)
	for r.Next() {
		switch r.In.Kind {
		case Load:
			if int64(r.In.Addr) != prev+1 {
				t.Fatalf("out of order: got %d after %d", r.In.Addr, prev)
			}
			prev = int64(r.In.Addr)
			loads++
		case Barrier:
			barriers++
		}
	}
	wait()
	if loads != n {
		t.Fatalf("loads = %d, want %d", loads, n)
	}
	if barriers != n/1000 {
		t.Fatalf("barriers = %d, want %d", barriers, n/1000)
	}
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
	// A consumer that abandons the run mid-trace must not strand the
	// producer in a barrier handoff; after Abort it runs to completion
	// against a closed sink.
	g := NewGen(1, 1)
	finished := false
	wait := g.Run(func(g *Gen) {
		for e := 0; e < 100; e++ {
			for i := 0; i < 10; i++ {
				g.Load(0, 1, uint64(i))
			}
			g.Barrier()
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
	if !finished {
		t.Fatal("producer did not run to completion after Abort")
	}
	// Draining the leftover chunk terminates instead of hanging: the
	// aborted streams are closed and publish nothing further.
	for r.Next() {
	}
}

// TestFinishedGenHoldsNoBuffers checks that after Abort — which the
// simulator calls on every exit path — a generator keeps no chunk
// buffers, whether its consumer drained every stream or walked away
// early: a finished generator that is still referenced must not pin an
// epoch's worth of recycled chunks.
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
		g.mu.Lock()
		held := len(g.free) + len(g.streams[0].chunks) + len(g.pending[0])
		if g.bufs[0] != nil || r.cur != nil {
			held++
		}
		g.mu.Unlock()
		if held != 0 {
			t.Errorf("consume %d: finished generator holds %d chunk buffers, want 0", consume, held)
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
