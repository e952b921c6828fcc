// Package trace defines the instruction stream that connects workload
// generators to the timing simulator.
//
// Workloads execute functionally (on real arrays in a memspace.Space) and
// emit one Instr per dynamic instruction. The workload kernel runs as a
// coroutine of the simulator, one synchronization epoch at a time: a
// reader that runs dry resumes it, and it suspends again at its next
// barrier. Memory stays proportional to one epoch rather than the whole
// trace, and because exactly one side runs at any instant, plain workload
// stores and functional simulator reads of the same arrays are race-free
// and deterministic.
package trace

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Kind classifies a dynamic instruction.
type Kind uint8

// Instruction kinds.
const (
	// Int is a single-cycle integer ALU operation.
	Int Kind = iota
	// FP is a multi-cycle floating-point operation.
	FP
	// Load is a data load; Addr is the virtual byte address.
	Load
	// Store is a data store; Addr is the virtual byte address.
	Store
	// Atomic is a read-modify-write (e.g. compare-and-swap).
	Atomic
	// Branch is a conditional branch; TakenFlag records its outcome.
	Branch
	// SoftPrefetch is a software prefetch instruction (non-faulting).
	SoftPrefetch
	// Barrier is a synchronization point across all cores.
	Barrier
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case FP:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	case Branch:
		return "branch"
	case SoftPrefetch:
		return "softpf"
	case Barrier:
		return "barrier"
	}
	return "?"
}

// Instr flag bits.
const (
	// TakenFlag marks a taken branch.
	TakenFlag uint8 = 1 << iota
	// LoadDepFlag marks a branch whose condition depends on a recent load
	// (the data-dependent branches of Section II).
	LoadDepFlag
)

// Instr is one dynamic instruction. It is kept to 16 bytes so that large
// epochs stay cheap to buffer.
type Instr struct {
	// Addr is the virtual byte address for memory kinds, 0 otherwise.
	Addr uint64
	// PC identifies the static instruction site (used by the branch
	// predictor and PC-indexed prefetchers).
	PC uint32
	// Kind is the instruction class.
	Kind Kind
	// Flags holds TakenFlag / LoadDepFlag bits.
	Flags uint8
	_     [2]byte
}

// Taken reports whether a branch instruction was taken.
func (in Instr) Taken() bool { return in.Flags&TakenFlag != 0 }

// LoadDep reports whether a branch depends on a recent load.
func (in Instr) LoadDep() bool { return in.Flags&LoadDepFlag != 0 }

// chunkSize is the number of instructions flushed to a core's queue at
// once.
const chunkSize = 4096

// Reader is the simulator-side cursor over one core's stream. Next
// deposits each instruction in In rather than returning it; see Next.
type Reader struct {
	cur []Instr
	pos int
	// n caches len(cur): the cached field keeps Next's fast path inside
	// the compiler's inlining budget (len() on the slice costs one more
	// node than the budget allows).
	n int
	// In holds the instruction the most recent successful Next produced.
	In   Instr
	core int
	gen  *Gen
	done bool
}

// Next advances to the next instruction, depositing it in r.In, and
// reports whether one was available (false means the stream is
// exhausted). When the core's queue is empty it resumes the workload
// kernel until the kernel's next epoch is complete.
//
// The deposit-in-field shape is deliberate: every value-returning
// variant of this function costs more than the compiler's inlining
// budget of 80 (the (Instr, bool) return alone pushed it to 92), and the
// per-instruction call from the core's dispatch loop is hot enough for
// the call overhead to show up in the profile. This shape sits at
// exactly cost 80; the //hot:inline contract below makes `prodigy-lint
// -escape` fail if a future edit pushes it back over. Chunk refills go
// through nextSlow.
//
//hot:path
//hot:inline
func (r *Reader) Next() bool {
	if r.pos < r.n {
		r.In = r.cur[r.pos]
		r.pos++
		return true
	}
	return r.nextSlow()
}

// nextSlow refills the chunk cursor (or reports exhaustion) and deposits
// the next instruction in r.In.
func (r *Reader) nextSlow() bool {
	for r.pos >= len(r.cur) {
		if r.done {
			return false
		}
		c, ok := r.gen.pop(r.core, r.cur)
		if !ok {
			r.done = true
			r.cur = nil
			r.n = 0
			r.pos = 0
			return false
		}
		r.cur = c
		r.n = len(c)
		r.pos = 0
	}
	r.In = r.cur[r.pos]
	r.pos++
	return true
}

// Gen produces per-core instruction streams.
//
// Under Run the workload kernel is a pull coroutine of the consumer: a
// reader whose queue is empty resumes it, and it runs until its next
// Barrier (which suspends it with the epoch published) or its return
// (which closes every stream). At any instant at most one of the two is
// running, so workloads may write their memspace arrays with plain stores
// while the simulator performs functional reads of the same arrays. It
// also makes the values the prefetchers read deterministic: they always
// see memory as of the end of the epoch being consumed. The consumer
// must drain every core's epoch before any reader asks for the next one.
//
// Without Run, the caller is the producer: emissions are published as
// they are made and Barrier does not suspend (Collect, unit tests).
type Gen struct {
	queues  [][][]Instr // per-core published chunks, oldest first
	readers []*Reader
	bufs    [][]Instr // per-core chunk being filled
	// free recycles fully-consumed chunk buffers back to the producer
	// while it can still run: steady-state emission reuses a handful of
	// chunkSize-capacity arrays instead of growing fresh ones each epoch.
	free   [][]Instr
	closed bool // the producer has finished or been abandoned

	// The coroutine Run starts, nil otherwise (and after Abort).
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// aborted is the panic a suspended kernel's Barrier raises once the
// consumer has abandoned the run; Run recovers it, so the kernel unwinds
// from the barrier it was suspended in.
type aborted struct{}

// NewGen creates a generator for ncores cores. The second parameter is
// ignored; it remains for existing callers.
func NewGen(ncores, _ int) *Gen {
	g := &Gen{
		queues:  make([][][]Instr, ncores),
		readers: make([]*Reader, ncores),
		bufs:    make([][]Instr, ncores),
	}
	for i := range g.readers {
		g.readers[i] = &Reader{core: i, gen: g}
	}
	return g
}

// Reader returns the consumer cursor for a core.
func (g *Gen) Reader(core int) *Reader { return g.readers[core] }

// pop hands the consumer the next chunk of core's queue, resuming the
// producer while the queue is empty. Returns ok=false once the queue is
// empty and the producer cannot add to it. used is the chunk the reader
// just finished; its backing array is recycled for the producer to refill.
func (g *Gen) pop(core int, used []Instr) ([]Instr, bool) {
	if cap(used) > 0 && !g.closed {
		//lint:allow hotpath-alloc chunk recycling: the free list is bounded by the chunks in flight per epoch, so growth stops after the first epoch
		g.free = append(g.free, used[:0])
	}
	for len(g.queues[core]) == 0 {
		if g.closed || g.next == nil {
			return nil, false
		}
		g.next()
	}
	q := g.queues[core]
	c := q[0]
	q[0] = nil
	g.queues[core] = q[1:]
	return c, true
}

// Abort ends production and discards everything not yet consumed. A
// kernel suspended at a Barrier unwinds from it without running further.
// The simulator calls it on every exit path — error, interrupt, panic and
// clean finish — so a generator something still references holds no
// chunk buffers and no coroutine.
func (g *Gen) Abort() {
	if g.stop != nil {
		g.stop()
	}
	g.next, g.stop, g.yield = nil, nil, nil
	g.closed = true
	for c := range g.queues {
		g.queues[c] = nil
	}
	g.free = nil
}

// newBuf returns an empty chunk buffer, reusing a recycled backing array
// when one is available.
func (g *Gen) newBuf() []Instr {
	if n := len(g.free); n > 0 {
		b := g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		return b
	}
	return make([]Instr, 0, chunkSize)
}

func (g *Gen) emit(core int, in Instr) {
	b := g.bufs[core]
	if b == nil {
		b = g.newBuf()
	}
	b = append(b, in)
	if len(b) >= chunkSize {
		g.queues[core] = append(g.queues[core], b)
		b = nil
	}
	g.bufs[core] = b
}

func (g *Gen) flush(core int) {
	if len(g.bufs[core]) > 0 {
		g.queues[core] = append(g.queues[core], g.bufs[core])
		g.bufs[core] = nil
	}
}

// Load emits a load of the element at addr.
func (g *Gen) Load(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: Load, PC: pc, Addr: addr})
}

// Store emits a store to addr.
func (g *Gen) Store(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: Store, PC: pc, Addr: addr})
}

// Atomic emits a read-modify-write to addr.
func (g *Gen) Atomic(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: Atomic, PC: pc, Addr: addr})
}

// Branch emits a conditional branch with its outcome.
func (g *Gen) Branch(core int, pc uint32, taken, loadDep bool) {
	var f uint8
	if taken {
		f |= TakenFlag
	}
	if loadDep {
		f |= LoadDepFlag
	}
	g.emit(core, Instr{Kind: Branch, PC: pc, Flags: f})
}

// Ops emits n single-cycle integer ALU operations.
func (g *Gen) Ops(core int, pc uint32, n int) {
	for i := 0; i < n; i++ {
		g.emit(core, Instr{Kind: Int, PC: pc})
	}
}

// FOps emits n floating-point operations.
func (g *Gen) FOps(core int, pc uint32, n int) {
	for i := 0; i < n; i++ {
		g.emit(core, Instr{Kind: FP, PC: pc})
	}
}

// SoftPrefetch emits a software prefetch of addr.
func (g *Gen) SoftPrefetch(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: SoftPrefetch, PC: pc, Addr: addr})
}

// Barrier emits a barrier to every core, publishes the epoch, and —
// under Run — suspends the kernel until a reader asks for the next epoch.
func (g *Gen) Barrier() {
	for c := range g.queues {
		g.emit(c, Instr{Kind: Barrier})
		g.flush(c)
	}
	if g.yield != nil && !g.yield(struct{}{}) {
		panic(aborted{})
	}
}

// Close publishes remaining buffers and closes all streams. The producer
// must not emit after Close.
func (g *Gen) Close() {
	for c := range g.queues {
		g.flush(c)
	}
	g.closed = true
	g.free = nil
}

// Run makes fn the generator's producer: a coroutine that the readers
// resume one epoch at a time, closing the generator when it returns.
// fn does not start until a reader first runs dry. The returned function
// ends the coroutine (like Abort, a kernel still suspended at a Barrier
// unwinds from it) and reports a panic in fn as an error, so one crashing
// workload kernel surfaces as a failed run instead of killing the whole
// process.
func (g *Gen) Run(fn func(*Gen)) (wait func() error) {
	var err error
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		g.yield = yield
		defer g.Close()
		defer func() {
			if p := recover(); p != nil && p != (aborted{}) {
				err = fmt.Errorf("trace: workload producer panicked: %v\n%s", p, debug.Stack())
			}
		}()
		fn(g)
	})
	g.next, g.stop = next, stop
	return func() error { stop(); return err }
}

// Collect runs fn with the caller as the producer and returns every
// core's full instruction sequence. Intended for tests and trace dumping.
func Collect(ncores int, fn func(*Gen)) [][]Instr {
	g := NewGen(ncores, 0)
	fn(g)
	g.Close()
	out := make([][]Instr, ncores)
	for c := 0; c < ncores; c++ {
		r := g.Reader(c)
		for r.Next() {
			out[c] = append(out[c], r.In)
		}
	}
	return out
}
