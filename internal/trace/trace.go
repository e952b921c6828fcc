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
	"sync"
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

// Instr is one dynamic instruction. It is 8 bytes: an epoch costs 8
// bytes per dynamic instruction to buffer and a chunk is 32 KiB. The
// narrow fields hold by construction. Every address a workload touches
// lies in a memspace.Space, whose allocators refuse any region reaching
// past memspace.Limit (2^32), and every PC is a static instruction site
// that a kernel numbers with a small constant, far below 2^16. The
// emitters still check both limits and panic rather than truncate, so a
// value outside them fails the run (Run turns the panic into its error)
// instead of aliasing another address or site.
type Instr struct {
	// Addr is the virtual byte address for memory kinds, 0 otherwise.
	Addr uint32
	// PC identifies the static instruction site (used by the branch
	// predictor and PC-indexed prefetchers).
	PC uint16
	// Kind is the instruction class.
	Kind Kind
	// Flags holds TakenFlag / LoadDepFlag bits.
	Flags uint8
}

// Limits of the encoding: an address must lie below addrLimit and a PC
// below pcLimit.
const (
	addrLimit = 1 << 32
	pcLimit   = 1 << 16
)

// Taken reports whether a branch instruction was taken.
func (in Instr) Taken() bool { return in.Flags&TakenFlag != 0 }

// LoadDep reports whether a branch depends on a recent load.
func (in Instr) LoadDep() bool { return in.Flags&LoadDepFlag != 0 }

// chunkSize is the number of instructions flushed to a core's queue at
// once.
const chunkSize = 4096

// chunkPool recycles chunk buffers across generators: a consumed chunk
// goes back to the pool, and the next emission anywhere — this epoch,
// the next, or the next cell's generator — refills it instead of
// allocating and zeroing a fresh 32 KiB array. It holds array pointers,
// so Put and Get do not allocate.
var chunkPool sync.Pool

// putChunk returns a chunk's backing array to the pool.
func putChunk(c []Instr) {
	if cap(c) >= chunkSize {
		chunkPool.Put((*[chunkSize]Instr)(c[:chunkSize]))
	}
}

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
	closed  bool      // the producer has finished or been abandoned

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
// just finished; its backing array goes back to the pool.
func (g *Gen) pop(core int, used []Instr) ([]Instr, bool) {
	putChunk(used)
	for len(g.queues[core]) == 0 {
		if g.closed || g.next == nil {
			return nil, false
		}
		g.next()
	}
	// Shift the queue down rather than reslicing past its head, so the
	// backing array is reused by every later epoch instead of
	// reallocated as the head walks off its end. A core's queue holds at
	// most one epoch, so a pop moves fewer pointers than the epoch has
	// chunks of 4096 instructions.
	q := g.queues[core]
	c := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	g.queues[core] = q[:n]
	return c, true
}

// Abort ends production and returns everything not yet consumed to the
// chunk pool. A kernel suspended at a Barrier unwinds from it without
// running further. The simulator calls it on every exit path — error,
// interrupt, panic and clean finish — so a generator something still
// references holds no chunk buffers and no coroutine.
func (g *Gen) Abort() {
	if g.stop != nil {
		g.stop()
	}
	g.next, g.stop, g.yield = nil, nil, nil
	g.closed = true
	for c, q := range g.queues {
		for _, b := range q {
			putChunk(b)
		}
		g.queues[c] = nil
		putChunk(g.bufs[c])
		g.bufs[c] = nil
	}
}

// newBuf returns an empty chunk buffer, drawn from the pool when it has
// one.
func (g *Gen) newBuf() []Instr {
	if b, ok := chunkPool.Get().(*[chunkSize]Instr); ok {
		return b[:0]
	}
	return make([]Instr, 0, chunkSize)
}

// emit appends one instruction to core's chunk, refusing a PC or address
// the 8-byte encoding cannot hold rather than truncating it.
func (g *Gen) emit(core int, k Kind, pc uint32, addr uint64, flags uint8) {
	if addr >= addrLimit || pc >= pcLimit {
		refuse(k, pc, addr)
	}
	b := g.bufs[core]
	if b == nil {
		b = g.newBuf()
	}
	b = append(b, Instr{Addr: uint32(addr), PC: uint16(pc), Kind: k, Flags: flags})
	if len(b) >= chunkSize {
		g.queues[core] = append(g.queues[core], b)
		b = nil
	}
	g.bufs[core] = b
}

// refuse panics with the out-of-range value; under Run the panic becomes
// the run's error.
//
//hot:cold
func refuse(k Kind, pc uint32, addr uint64) {
	if pc >= pcLimit {
		panic(fmt.Sprintf("trace: %s at pc %d: pc does not fit in 16 bits", k, pc))
	}
	panic(fmt.Sprintf("trace: %s at pc %d: address %#x is outside the 4 GiB address space", k, pc, addr))
}

func (g *Gen) flush(core int) {
	if len(g.bufs[core]) > 0 {
		g.queues[core] = append(g.queues[core], g.bufs[core])
		g.bufs[core] = nil
	}
}

// Load emits a load of the element at addr.
func (g *Gen) Load(core int, pc uint32, addr uint64) { g.emit(core, Load, pc, addr, 0) }

// Store emits a store to addr.
func (g *Gen) Store(core int, pc uint32, addr uint64) { g.emit(core, Store, pc, addr, 0) }

// Atomic emits a read-modify-write to addr.
func (g *Gen) Atomic(core int, pc uint32, addr uint64) { g.emit(core, Atomic, pc, addr, 0) }

// Branch emits a conditional branch with its outcome.
func (g *Gen) Branch(core int, pc uint32, taken, loadDep bool) {
	var f uint8
	if taken {
		f |= TakenFlag
	}
	if loadDep {
		f |= LoadDepFlag
	}
	g.emit(core, Branch, pc, 0, f)
}

// Ops emits n single-cycle integer ALU operations.
func (g *Gen) Ops(core int, pc uint32, n int) {
	for i := 0; i < n; i++ {
		g.emit(core, Int, pc, 0, 0)
	}
}

// FOps emits n floating-point operations.
func (g *Gen) FOps(core int, pc uint32, n int) {
	for i := 0; i < n; i++ {
		g.emit(core, FP, pc, 0, 0)
	}
}

// SoftPrefetch emits a software prefetch of addr.
func (g *Gen) SoftPrefetch(core int, pc uint32, addr uint64) {
	g.emit(core, SoftPrefetch, pc, addr, 0)
}

// Barrier emits a barrier to every core, publishes the epoch, and —
// under Run — suspends the kernel until a reader asks for the next epoch.
func (g *Gen) Barrier() {
	for c := range g.queues {
		g.emit(c, Barrier, 0, 0, 0)
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
