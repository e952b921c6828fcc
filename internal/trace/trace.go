// Package trace defines the instruction stream that connects workload
// generators to the timing simulator.
//
// Workloads execute functionally (on real arrays in a memspace.Space) and
// emit one Instr per dynamic instruction. The generator runs in its own
// goroutine and alternates strictly with the simulator one synchronization
// epoch at a time: it stages an epoch, publishes it at the barrier, and
// blocks until the simulator has drained it. Memory stays proportional to
// one epoch rather than the whole trace, and because exactly one side runs
// at any instant, plain workload stores and functional simulator reads of
// the same arrays are race-free and deterministic.
package trace

import (
	"fmt"
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

// chunkSize is the number of instructions flushed to a stream at once.
const chunkSize = 4096

// Stream is a single core's instruction queue: the producer appends chunks,
// one consumer pops them. All fields are guarded by the owning Gen's mutex.
type Stream struct {
	chunks [][]Instr
	closed bool
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
	s    *Stream
	gen  *Gen
	done bool
}

// Next advances to the next instruction, depositing it in r.In, and
// reports whether one was available (false means the stream is
// exhausted). It blocks while the generator is producing the next epoch.
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
		c, ok := r.gen.pop(r.s, r.cur)
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

// Gen produces per-core instruction streams. All emit methods must be
// called from a single producer goroutine.
//
// In asynchronous mode the producer and the consumer alternate strictly:
// the producer stages each epoch's chunks privately, publishes them at the
// Barrier, and then blocks until the consumer has drained every stream and
// parked again waiting for more. At any instant at most one of the two is
// running, so workloads may write their memspace arrays with plain stores
// while the simulator performs functional reads of the same arrays — the
// handoff mutex orders every write before every read that can observe it.
// It also makes the values the prefetchers read deterministic: they always
// see memory as of the end of the epoch being consumed.
type Gen struct {
	streams []*Stream
	readers []*Reader
	bufs    [][]Instr   // per-core chunk being filled (producer-private)
	pending [][][]Instr // per-core chunks staged until the next handoff

	mu      sync.Mutex
	cond    *sync.Cond
	waiting bool // consumer is parked awaiting the next epoch
	aborted bool // consumer abandoned the run; discard all further output
	async   bool
	// free recycles fully-consumed chunk buffers back to the producer
	// (guarded by mu): steady-state emission reuses a handful of
	// chunkSize-capacity arrays instead of growing fresh ones each epoch.
	free [][]Instr
}

// NewGen creates a generator for ncores cores. maxBuffered > 0 selects
// asynchronous mode, where a producer goroutine alternates with the
// consumer one epoch at a time (the limit itself is vestigial: buffering
// is now bounded at one epoch regardless of its value). maxBuffered <= 0
// selects synchronous mode — emissions publish immediately and barriers
// never block — for producers that run to completion before any consumer
// starts (Collect, unit tests).
func NewGen(ncores, maxBuffered int) *Gen {
	g := &Gen{
		streams: make([]*Stream, ncores),
		readers: make([]*Reader, ncores),
		bufs:    make([][]Instr, ncores),
		pending: make([][][]Instr, ncores),
		async:   maxBuffered > 0,
	}
	g.cond = sync.NewCond(&g.mu)
	for i := range g.streams {
		g.streams[i] = &Stream{}
		g.readers[i] = &Reader{s: g.streams[i], gen: g}
	}
	return g
}

// Cores returns the number of cores the generator feeds.
func (g *Gen) Cores() int { return len(g.streams) }

// Reader returns the consumer cursor for a core.
func (g *Gen) Reader(core int) *Reader { return g.readers[core] }

// pop hands the consumer the next chunk of s, parking (and thereby handing
// the turn to the producer) while none is available. Returns ok=false once
// the stream is closed and empty. used is the chunk the reader just
// finished; its backing array is recycled for the producer to refill.
func (g *Gen) pop(s *Stream, used []Instr) ([]Instr, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cap(used) > 0 && !g.aborted {
		//lint:allow hotpath-alloc chunk recycling: the free list is bounded by the chunks in flight per epoch, so growth stops after the first epoch
		g.free = append(g.free, used[:0])
	}
	for len(s.chunks) == 0 && !s.closed {
		g.waiting = true
		g.cond.Broadcast()
		g.cond.Wait()
		g.waiting = false
	}
	if len(s.chunks) == 0 {
		return nil, false
	}
	c := s.chunks[0]
	s.chunks[0] = nil
	s.chunks = s.chunks[1:]
	return c, true
}

// drained reports whether the consumer has popped every published chunk.
// Callers must hold g.mu.
func (g *Gen) drained() bool {
	for _, s := range g.streams {
		if len(s.chunks) > 0 {
			return false
		}
	}
	return true
}

// handoff publishes all staged chunks to the consumer and, in asynchronous
// mode, blocks until the consumer has drained them and parked again — the
// point at which the producer may safely resume mutating workload memory.
// With closing set it instead closes every stream and returns immediately.
func (g *Gen) handoff(closing bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for c := range g.pending {
		if g.aborted {
			g.pending[c] = nil
			continue
		}
		g.streams[c].chunks = append(g.streams[c].chunks, g.pending[c]...)
		g.pending[c] = nil
	}
	if closing {
		for _, s := range g.streams {
			s.closed = true
		}
	}
	g.cond.Broadcast()
	if closing || !g.async {
		return
	}
	for !g.aborted && !(g.waiting && g.drained()) {
		g.cond.Wait()
	}
}

// Abort permanently unblocks the producer and discards everything it
// publishes from now on. The simulator calls it when abandoning a run
// early (error, interrupt, panic): the producer goroutine cannot be
// killed, so it is let run to completion against a closed sink. It also
// calls it after every clean finish, so Abort drops the recycled chunk
// buffers too: a generator something still references holds none.
func (g *Gen) Abort() {
	g.mu.Lock()
	g.aborted = true
	for _, s := range g.streams {
		s.chunks = nil
		s.closed = true
	}
	g.free = nil
	g.mu.Unlock()
	g.cond.Broadcast()
}

// newBuf returns an empty chunk buffer, reusing a recycled backing array
// when one is available.
func (g *Gen) newBuf() []Instr {
	g.mu.Lock()
	if n := len(g.free); n > 0 {
		b := g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		g.mu.Unlock()
		return b
	}
	g.mu.Unlock()
	return make([]Instr, 0, chunkSize)
}

func (g *Gen) emit(core int, in Instr) {
	b := g.bufs[core]
	if b == nil {
		b = g.newBuf()
	}
	b = append(b, in)
	if len(b) >= chunkSize {
		g.stage(core, b)
		b = nil
	}
	g.bufs[core] = b
}

// stage queues a completed chunk for the next handoff. In synchronous mode
// it publishes immediately instead.
func (g *Gen) stage(core int, c []Instr) {
	if g.async {
		g.pending[core] = append(g.pending[core], c)
		return
	}
	g.mu.Lock()
	if !g.aborted {
		g.streams[core].chunks = append(g.streams[core].chunks, c)
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *Gen) flush(core int) {
	if len(g.bufs[core]) > 0 {
		g.stage(core, g.bufs[core])
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

// Barrier emits a barrier to every core, publishes the epoch, and — in
// asynchronous mode — blocks until the consumer has drained it and parked,
// keeping producer and consumer strictly alternating.
func (g *Gen) Barrier() {
	for c := range g.streams {
		g.emit(c, Instr{Kind: Barrier})
		g.flush(c)
	}
	g.handoff(false)
}

// Close publishes remaining buffers and closes all streams. The producer
// must not emit after Close.
func (g *Gen) Close() {
	for c := range g.streams {
		g.flush(c)
	}
	g.handoff(true)
}

// Run starts fn in a producer goroutine and closes the generator when it
// returns. The returned function waits for the producer to finish and
// reports a panic in fn as an error, so one crashing workload kernel
// surfaces as a failed run instead of killing the whole process.
func (g *Gen) Run(fn func(*Gen)) (wait func() error) {
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		defer g.Close()
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("trace: workload producer panicked: %v\n%s", p, debug.Stack())
			}
		}()
		fn(g)
	}()
	return func() error { <-done; return err }
}

// Collect runs fn synchronously with throttling disabled and returns every
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
