// Package core implements the Prodigy hardware prefetcher — the paper's
// primary contribution (Section IV). A per-core Prodigy instance is
// programmed with a DIG (Data Indirection Graph), snoops demand accesses
// to the L1D, and walks the DIG ahead of the core:
//
//   - Trigger handling: a demand access inside a trigger data structure
//     initializes several prefetch sequences at a look-ahead distance
//     derived from the DIG depth (Section IV-C1).
//   - Sequence advance: each prefetch fill is dereferenced and propagated
//     along the node's outgoing edges — single-valued (w0) or ranged (w1)
//     indirection (Section IV-C2).
//   - PFHR file: a small register file tracks outstanding prefetch lines,
//     making the prefetcher non-blocking; when it is full, further
//     prefetches are dropped (the Fig. 12 structural hazard).
//   - Drop-on-catch-up: when the core's demand stream reaches a live
//     sequence's trigger address, the sequence is abandoned so the
//     prefetcher always runs ahead (Section IV-C1).
package core

import (
	"math/bits"
	"strconv"

	"prodigy/internal/cache"
	"prodigy/internal/dig"
	"prodigy/internal/prefetch"
)

// Config sizes the Prodigy hardware.
type Config struct {
	// PFHREntries is the PFHR file size (Fig. 12 explores 4–32; the paper
	// picks 16).
	PFHREntries int
	// MaxRangedLines caps how many destination lines one ranged expansion
	// may request, bounding the fan-out of hub vertices. 0 means 64.
	MaxRangedLines int
	// DisableRanged ignores w1 edges (ablation: IMP/DROPLET-style
	// coverage).
	DisableRanged bool
	// SingleSequence forces one sequence per trigger and disables
	// drop-on-catch-up (ablation: Ainsworth & Jones-style timeliness).
	SingleSequence bool
}

// DefaultConfig returns the paper's chosen design point.
func DefaultConfig() Config { return Config{PFHREntries: 16, MaxRangedLines: 64} }

// maxWalkDepth bounds the synchronous DIG walk so that a cyclic DIG with
// fully resident data cannot recurse unboundedly.
const maxWalkDepth = 12

// Stats counts Prodigy-internal events.
type Stats struct {
	Triggers        uint64 // trigger events observed
	SeqStarted      uint64 // prefetch sequences initialized
	SeqDropped      uint64 // sequences abandoned (core caught up)
	IssuedTrigger   uint64 // prefetches of trigger-node data
	IssuedSingle    uint64 // prefetches via w0 edges
	IssuedRanged    uint64 // prefetches via w1 edges (expansions)
	LinesTrigger    uint64 // cache lines requested for trigger nodes
	LinesSingle     uint64 // cache lines requested via w0 edges
	LinesRanged     uint64 // cache lines requested via w1 edges
	PFHRFull        uint64 // prefetches dropped: no free PFHR
	ResidentSkipped uint64 // requests skipped because the line was cached
}

// trigState is the per-trigger-node progress the prefetcher keeps so
// repeated demand hits to the same element do not re-trigger, and so
// successive triggers extend rather than repeat the sequence window.
type trigState struct {
	lastDemandIdx int64 // last element index demanded (-1 initially)
	nextSeqIdx    int64 // next element index a sequence may start at
	dir           int64 // current traversal direction (+1 / -1)
	started       bool
	// Trigger parameters resolved once at programming time (the DIG is
	// immutable after Build), keeping map lookups off the demand hot path.
	look       int64
	numSeqs    int64
	descending bool
}

// node is one node-table entry (the hardware's node-table RAM), resolved
// once at programming time (the DIG is immutable after Build). Element
// sizes are powers of two (dig.Builder enforces it), so address/index
// conversions are shifts, and every per-node quantity the walk needs is a
// field: no map lookup, edge-list scan or divide on the per-request path.
type node struct {
	id      dig.NodeID
	trigger bool // has a trigger self-edge
	// leaf: no out-edges (fills need no processing); rangedOut: some
	// out-edge is ranged (demands advance the walk reactively).
	leaf, rangedOut bool
	shift           uint8 // log2 of the element size
	base, bound     uint64
	numElems        uint64
	// maxRanged caps one ranged expansion into this node, in elements
	// (Config.MaxRangedLines lines).
	maxRanged uint64
	out       []edge
	trig      *trigState // nil unless trigger
}

// edge is a resolved traversal edge out of a node.
type edge struct {
	dst    *node
	ranged bool
}

func (n *node) contains(addr uint64) bool { return addr >= n.base && addr < n.bound }

// index converts an address within the node to an element index.
func (n *node) index(addr uint64) uint64 { return (addr - n.base) >> n.shift }

// elemAddr converts an element index to a virtual address.
func (n *node) elemAddr(idx uint64) uint64 { return n.base + idx<<n.shift }

// Prodigy is one core's prefetcher.
type Prodigy struct {
	env  prefetch.Env
	cfg  Config
	pfhr pfhrFile
	// nodes is the node table in DIG order (the order of the per-demand
	// range scan); byID indexes the same entries by NodeID.
	nodes []node
	byID  []*node
	// lineShift is log2 of the cache line size (a power of two, validated
	// by the cache geometry).
	lineShift uint
	// lastNode short-circuits the per-demand node-table scan when
	// consecutive demands land in the same node (the overwhelmingly
	// common case while streaming through an array). Only used when the
	// node ranges are pairwise disjoint, so the shortcut returns exactly
	// what the scan would.
	lastNode     *node
	nodesOverlap bool
	// oneStep marks a reactive demand-advance in progress: its requests go
	// out untracked (no PFHR, no continuation) — later demands re-arm the
	// next level, while PFHRs stay available for deep sequence walks.
	oneStep bool
	// paused gates all prefetching while the owning thread is descheduled
	// (Section IV-F); DIG tables and trigger state are retained so
	// prefetching resumes where it left off.
	paused bool
	// internalDrops counts requests abandoned before reaching the memory
	// system because no PFHR was free. Stats.PFHRFull additionally counts
	// MSHR-cap rejections (the register was allocated, then released), which
	// the engine already counts on its side — keeping the internal-only
	// number separate lets IssueStats report drops without double counting.
	internalDrops uint64
	// Stats is exported for the experiment harness.
	Stats Stats
}

// New returns a prefetch.Factory that programs each core's Prodigy
// instance with the given DIG.
func New(d *dig.DIG, cfg Config) prefetch.Factory {
	return func(env prefetch.Env) prefetch.Prefetcher {
		return NewPrefetcher(env, d, cfg)
	}
}

// NewPrefetcher builds a single Prodigy instance (tests use this
// directly; the simulator goes through New). env.LineSize must be a power
// of two.
func NewPrefetcher(env prefetch.Env, d *dig.DIG, cfg Config) *Prodigy {
	if cfg.PFHREntries <= 0 {
		cfg.PFHREntries = DefaultConfig().PFHREntries
	}
	if cfg.PFHREntries > maxPFHREntries {
		cfg.PFHREntries = maxPFHREntries
	}
	if cfg.MaxRangedLines <= 0 {
		cfg.MaxRangedLines = DefaultConfig().MaxRangedLines
	}
	p := &Prodigy{
		env:       env,
		cfg:       cfg,
		pfhr:      newPFHRFile(cfg.PFHREntries),
		nodes:     make([]node, len(d.Nodes)),
		lineShift: uint(bits.TrailingZeros(uint(env.LineSize))),
	}
	maxID := dig.NodeID(0)
	for i := range d.Nodes {
		maxID = max(maxID, d.Nodes[i].ID)
	}
	p.byID = make([]*node, int(maxID)+1)
	for i := range d.Nodes {
		dn := &d.Nodes[i]
		n := &p.nodes[i]
		*n = node{
			id:      dn.ID,
			trigger: dn.IsTrigger,
			leaf:    d.IsLeaf(dn.ID),
			shift:   uint8(bits.TrailingZeros8(dn.DataSize)),
			base:    dn.Base,
			bound:   dn.Bound,
		}
		n.numElems = (n.bound - n.base) >> n.shift
		n.maxRanged = uint64(cfg.MaxRangedLines) << p.lineShift >> n.shift
		p.byID[dn.ID] = n
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		for _, e := range d.OutEdges(n.id) {
			if e.Type == dig.Ranged {
				n.rangedOut = true
			}
			if (e.Type == dig.SingleValued || e.Type == dig.Ranged) && int(e.Dst) < len(p.byID) && p.byID[e.Dst] != nil {
				n.out = append(n.out, edge{dst: p.byID[e.Dst], ranged: e.Type == dig.Ranged})
			}
		}
		if n.trigger {
			n.trig = &trigState{
				lastDemandIdx: -1,
				look:          int64(d.Lookahead(n.id)),
				numSeqs:       int64(d.NumSeqs(n.id)),
				descending:    d.TriggerCfg[n.id].Descending,
			}
		}
		for j := i + 1; j < len(p.nodes); j++ {
			if m := &p.nodes[j]; n.base < m.bound && m.base < n.bound {
				p.nodesOverlap = true
			}
		}
	}
	// PFHR occupancy and sequence counters for the interval metrics.
	// Counters are summed across cores (registered under shared names);
	// the occupancy gauge is per core.
	if r := env.Obs; r != nil {
		r.CounterFunc("prodigy.seq_started", func() uint64 { return p.Stats.SeqStarted })
		r.CounterFunc("prodigy.seq_dropped", func() uint64 { return p.Stats.SeqDropped })
		r.CounterFunc("prodigy.pfhr_full", func() uint64 { return p.Stats.PFHRFull })
	}
	env.Obs.GaugeFunc("prodigy.pfhr_free.c"+strconv.Itoa(env.Core),
		func(int64) float64 { return float64(p.FreePFHRs()) })
	return p
}

// Name identifies the scheme.
func (p *Prodigy) Name() string { return "prodigy" }

// SchemeStats implements prefetch.StatsReporter: a copy of Stats.
func (p *Prodigy) SchemeStats() any { return p.Stats }

// IssueStats implements prefetch.IssueReporter: Requested counts the
// lines handed to the memory system (trigger + single + ranged),
// SkippedResident the probe-elided requests, and DroppedInternal the
// PFHR-pressure drops that never reached the memory system (the paper's
// Fig. 12 structural hazard, surfaced as the "dropped" lifecycle class).
func (p *Prodigy) IssueStats() prefetch.IssueStats {
	return prefetch.IssueStats{
		Requested:       p.Stats.LinesTrigger + p.Stats.LinesSingle + p.Stats.LinesRanged,
		SkippedResident: p.Stats.ResidentSkipped,
		DroppedInternal: p.internalDrops,
	}
}

// Pause suspends prefetching when the owning thread is descheduled
// (Section IV-F). The prefetcher-local state — DIG tables, PFHRs, trigger
// progress — remains untouched, so a later Resume continues seamlessly.
func (p *Prodigy) Pause() { p.paused = true }

// Resume re-enables prefetching after a Pause.
func (p *Prodigy) Resume() { p.paused = false }

// FreePFHRs returns the number of free registers (test hook).
func (p *Prodigy) FreePFHRs() int { return p.pfhr.free() }

// containing is the node-table range scan the hardware performs on every
// L1D snoop: the first node containing addr, or nil.
func (p *Prodigy) containing(addr uint64) *node {
	for i := range p.nodes {
		if p.nodes[i].contains(addr) {
			return &p.nodes[i]
		}
	}
	return nil
}

// OnDemand snoops a demand access (the prefetcher "reacts to demand
// accesses and prefetch fills", Section IV). Accesses inside a trigger
// data structure drop caught-up sequences and initialize new ones;
// accesses to other non-leaf DIG nodes advance the walk reactively from
// the demanded element — this is what keeps coverage when a sequence was
// dropped or squashed: the demand itself re-arms the downstream levels.
func (p *Prodigy) OnDemand(now int64, pc uint32, addr uint64, level cache.Level) {
	if p.paused {
		return
	}
	n := p.lastNode
	if n == nil || !n.contains(addr) {
		n = p.containing(addr)
		if n == nil {
			return
		}
		if !p.nodesOverlap {
			p.lastNode = n
		}
	}
	if !n.trigger {
		p.demandAdvance(n, addr)
		return
	}
	// Trigger-node demands also advance reactively: if the sequence that
	// covered this element was dropped or squashed, the demand re-arms its
	// downstream walk (partial hiding beats none).
	p.demandAdvance(n, addr)
	ts := n.trig
	idx := int64(n.index(addr))
	if ts.started && idx == ts.lastDemandIdx {
		return // same work item; no new trigger event
	}
	p.Stats.Triggers++
	prevIdx := ts.lastDemandIdx
	ts.lastDemandIdx = idx

	// Drop-on-catch-up: the core has reached this element; any live
	// sequence starting here can only partially hide latency.
	if !p.cfg.SingleSequence {
		p.dropSequence(n.elemAddr(uint64(idx)))
	}

	look := ts.look
	numSeqs := ts.numSeqs
	if p.cfg.SingleSequence {
		numSeqs = 1
	}

	// Traversal direction: pinned by the trigger edge, or inferred from
	// the demand stream (Section IV-C1 lets software define ascending or
	// descending order; inferring it lets one DIG serve symmetric sweeps
	// like SymGS without run-time reprogramming).
	dir := int64(1)
	if ts.descending {
		dir = -1
	} else if ts.started && idx < prevIdx {
		dir = -1
	}
	first := idx + dir*look
	last := idx + dir*(look+numSeqs-1)
	if !ts.started || dir != ts.dir {
		ts.started = true
		ts.dir = dir
		ts.nextSeqIdx = first
	}
	for s := first; dir*(last-s) >= 0; s += dir {
		if dir*(s-ts.nextSeqIdx) < 0 {
			continue // already covered by an earlier trigger
		}
		if s < 0 || uint64(s) >= n.numElems {
			continue
		}
		p.startSequence(n, uint64(s))
		ts.nextSeqIdx = s + dir
	}
}

// demandAdvance walks the DIG one step from a demanded element. Only
// ranged out-edges are followed: a ranged expansion fetches a stream the
// core will spend a while in, so reacting is worth the bandwidth, whereas
// a single-valued target is demanded within a couple of instructions —
// prefetching it reactively can no longer hide anything and only floods
// the memory controller.
func (p *Prodigy) demandAdvance(n *node, addr uint64) {
	if !n.rangedOut {
		return
	}
	elemAddr := n.elemAddr(n.index(addr))
	lineAddr := elemAddr >> p.lineShift << p.lineShift
	off := (elemAddr - lineAddr) >> n.shift
	p.oneStep = true
	p.advance(n, elemAddr, lineAddr, 1<<off, 0)
	p.oneStep = false
}

// rangedOnly reports whether the walk is in reactive one-step mode, in
// which advance skips single-valued edges.
func (p *Prodigy) rangedOnly() bool { return p.oneStep }

// startSequence begins a prefetch sequence at element seqIdx of the
// trigger node: the first request fetches the trigger data itself.
func (p *Prodigy) startSequence(n *node, seqIdx uint64) {
	p.Stats.SeqStarted++
	p.env.Obs.Instant(p.env.Core, "seq-start", "prodigy")
	elemAddr := n.elemAddr(seqIdx)
	p.Stats.IssuedTrigger++
	p.requestElems(n, elemAddr, elemAddr, 1, 0, kindTrigger)
}

// dropSequence frees every PFHR belonging to the sequence anchored at
// trigAddr (Section IV-C1's selective dropping). Only sequences still
// waiting on their trigger-node data are abandoned: those can at best
// partially hide the latency the core is already paying. Walks that
// advanced deeper are fetching data the core needs imminently and run to
// completion.
func (p *Prodigy) dropSequence(trigAddr uint64) {
	if p.pfhr.dropAnchored(trigAddr) {
		p.Stats.SeqDropped++
		p.env.Obs.Instant(p.env.Core, "seq-drop", "prodigy")
	}
}

// requestElems asks for count consecutive elements of node n starting at
// addr, on behalf of the sequence anchored at trigAddr. Lines already
// resident advance immediately; absent lines are issued to memory with a
// PFHR tracking them (unless n is a leaf, in which case the fill needs no
// processing and the request is fire-and-forget).
// Edge-kind tags for per-line issue accounting (the §VI-C ranged-fraction
// statistic).
const (
	kindTrigger = iota
	kindSingle
	kindRanged
)

func (p *Prodigy) requestElems(n *node, trigAddr, addr uint64, count uint64, depth int, kind int) {
	if depth > maxWalkDepth {
		return
	}
	end := addr + count<<n.shift
	if end > n.bound {
		end = n.bound
	}
	elemMask := uint64(1)<<n.shift - 1
	for cur := addr; cur < end; {
		lineAddr := cur >> p.lineShift << p.lineShift
		next := lineAddr + 1<<p.lineShift
		if next > end {
			next = end
		}
		// Element-offset bitmap within this line (Fig. 9d): the covered
		// elements are contiguous, so the bitmap is a shifted run of ones.
		first := (cur - lineAddr) >> n.shift
		nbits := (next - cur + elemMask) >> n.shift
		bitmap := (uint64(1)<<nbits - 1) << first
		p.requestLine(n, trigAddr, lineAddr, bitmap, depth, kind)
		cur = next
	}
}

// countIssuedLine attributes one issued memory line to its edge kind (the
// §VI-C ranged-fraction statistic counts lines actually sent to memory).
func (p *Prodigy) countIssuedLine(kind int) {
	switch kind {
	case kindSingle:
		p.Stats.LinesSingle++
	case kindRanged:
		p.Stats.LinesRanged++
	default:
		p.Stats.LinesTrigger++
	}
}

func (p *Prodigy) requestLine(n *node, trigAddr, lineAddr uint64, bitmap uint64, depth int, kind int) {
	leaf := n.leaf || p.oneStep
	lvl := p.env.Probe(lineAddr)
	if lvl == cache.LvlL1 {
		p.Stats.ResidentSkipped++
		if !leaf {
			// Data is on chip: advance the sequence immediately, as the
			// hardware would after its tag probe.
			p.advance(n, trigAddr, lineAddr, bitmap, depth)
		}
		return
	}
	// L2/L3-resident lines are still prefetched up to the L1D: the request
	// is serviced on-chip (no DRAM traffic) and the fill refreshes the
	// outer-level replacement state, protecting the line from the streaming
	// traffic that would otherwise evict it before the demand arrives.
	if leaf {
		p.countIssuedLine(kind)
		p.env.IssueAt(lineAddr, prefetch.UntrackedMeta, lvl)
		return
	}
	// One scan finds both a merge target and the first free register.
	// Merging with an existing PFHR for the same node and line (the offset
	// bitmap exists exactly for this) adopts the newer anchor: keeping
	// the oldest anchor would let one drop-on-catch-up kill every merged
	// sequence the moment the demand reaches the first of them, while
	// allocating one PFHR per sequence would exhaust the 16-entry file.
	idx, merge := p.pfhr.lookup(n.id, lineAddr)
	if merge {
		r := &p.pfhr.regs[idx]
		r.bitmap |= bitmap
		r.trigAddr = trigAddr
		return
	}
	if idx < 0 {
		p.Stats.PFHRFull++
		p.internalDrops++
		return
	}
	p.pfhr.take(idx)
	r := &p.pfhr.regs[idx]
	r.node = n.id
	r.onTrig = n.trigger
	r.trigAddr = trigAddr
	r.lineAddr = lineAddr
	r.bitmap = bitmap
	p.countIssuedLine(kind)
	if !p.env.IssueAt(lineAddr, p.meta(idx), lvl) {
		// The memory system dropped the request (MSHR cap): no fill will
		// ever arrive, so release the register instead of leaking it.
		p.pfhr.release(idx)
		p.Stats.PFHRFull++
	}
}

// maxPFHREntries caps the PFHR file at what the fill metadata can
// address: the index gets 16 bits, but an index of 0xFFFF together with
// an all-ones generation would collide with prefetch.UntrackedMeta, so
// the file is limited to 1<<15 entries (far beyond Fig. 12's 4–32 range).
const maxPFHREntries = 1 << 15

// meta packs a PFHR index (low 16 bits) and its generation (high 16
// bits) into the issue metadata.
func (p *Prodigy) meta(idx int) uint32 {
	return uint32(idx) | uint32(p.pfhr.regs[idx].gen)<<16
}

// unpackMeta splits fill metadata back into the PFHR index and
// generation.
func unpackMeta(meta uint32) (idx int, gen uint16) {
	return int(meta & 0xFFFF), uint16(meta >> 16)
}

// OnFill receives a completed prefetch. Untracked (leaf) fills are
// ignored; tracked fills advance their sequence and free the PFHR.
func (p *Prodigy) OnFill(now int64, addr uint64, meta uint32, level cache.Level) {
	if meta == prefetch.UntrackedMeta {
		return
	}
	idx, gen := unpackMeta(meta)
	if idx >= len(p.pfhr.regs) || !p.pfhr.isBusy(idx) || p.pfhr.regs[idx].gen != gen {
		return // sequence was dropped while the request was in flight
	}
	r := &p.pfhr.regs[idx]
	p.pfhr.release(idx)
	if p.paused {
		// Fills arriving while descheduled retire their PFHRs without
		// walking further.
		return
	}
	p.advance(p.byID[r.node], r.trigAddr, r.lineAddr, r.bitmap, 0)
}

// advance dereferences the elements named by bitmap in the filled line and
// issues the next level of the DIG walk (Section IV-C2).
func (p *Prodigy) advance(n *node, trigAddr, lineAddr uint64, bitmap uint64, depth int) {
	if len(n.out) == 0 {
		return
	}
	for off := uint64(0); bitmap != 0; off, bitmap = off+1, bitmap>>1 {
		if bitmap&1 == 0 {
			continue
		}
		elemAddr := lineAddr + off<<n.shift
		if !n.contains(elemAddr) {
			continue
		}
		val, ok := p.env.Read(elemAddr)
		if !ok {
			continue
		}
		for _, e := range n.out {
			dst := e.dst
			if !e.ranged {
				if p.rangedOnly() {
					continue
				}
				if val >= dst.numElems {
					continue
				}
				p.Stats.IssuedSingle++
				p.requestElems(dst, trigAddr, dst.elemAddr(val), 1, depth+1, kindSingle)
				continue
			}
			if p.cfg.DisableRanged {
				continue
			}
			// Read the pair (a[i], a[i+1]) bounding the stream. The
			// hardware reads both off the fill (they are adjacent; a
			// line-crossing pair costs one extra read).
			hi, ok := p.env.Read(elemAddr + 1<<n.shift)
			if !ok || hi <= val {
				continue
			}
			if val >= dst.numElems {
				continue
			}
			hi = min(hi, dst.numElems)
			count := min(hi-val, dst.maxRanged)
			p.Stats.IssuedRanged++
			p.requestElems(dst, trigAddr, dst.elemAddr(val), count, depth+1, kindRanged)
		}
	}
}
