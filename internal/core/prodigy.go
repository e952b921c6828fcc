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
	"strconv"

	"prodigy/internal/cache"
	"prodigy/internal/dig"
	"prodigy/internal/obs"
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

// pfhr is one PreFetch status Handling Register (Fig. 9d).
type pfhr struct {
	free     bool
	node     dig.NodeID
	trigAddr uint64 // sequence identity: the trigger element's address
	lineAddr uint64 // outstanding prefetch line
	bitmap   uint64 // element offsets within the line still to process
	gen      uint16 // reuse guard for in-flight fills
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

// Prodigy is one core's prefetcher.
type Prodigy struct {
	env  prefetch.Env
	d    *dig.DIG
	cfg  Config
	regs []pfhr
	trig map[dig.NodeID]*trigState
	// byID is the node table indexed directly by NodeID (the hardware's
	// node-table RAM); advance dereferences it once per edge per element,
	// where DIG.NodeByID's linear scan showed up in profiles.
	byID []*dig.Node
	// trigByID, leafByID, and rangedOut are per-NodeID tables resolved
	// once at programming time (the DIG is immutable after Build): the
	// trigger state, whether the node has no out-edges, and whether any
	// out-edge is ranged. They keep map lookups and edge-list scans off
	// the per-demand hot path.
	trigByID  []*trigState
	leafByID  []bool
	rangedOut []bool
	// lastNode short-circuits the per-demand node-table scan when
	// consecutive demands land in the same node (the overwhelmingly
	// common case while streaming through an array). Only used when the
	// node ranges are pairwise disjoint, so the shortcut returns exactly
	// what the scan would.
	lastNode     *dig.Node
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

	// Interval-metrics counter IDs (inert when env.Obs is nil).
	obsSeqStarted obs.CounterID
	obsSeqDropped obs.CounterID
	obsPFHRFull   obs.CounterID
}

// New returns a prefetch.Factory that programs each core's Prodigy
// instance with the given DIG.
func New(d *dig.DIG, cfg Config) prefetch.Factory {
	return func(env prefetch.Env) prefetch.Prefetcher {
		return NewPrefetcher(env, d, cfg)
	}
}

// NewPrefetcher builds a single Prodigy instance (tests use this
// directly; the simulator goes through New).
func NewPrefetcher(env prefetch.Env, d *dig.DIG, cfg Config) *Prodigy {
	if cfg.PFHREntries <= 0 {
		cfg.PFHREntries = 16
	}
	if cfg.PFHREntries > maxPFHREntries {
		cfg.PFHREntries = maxPFHREntries
	}
	if cfg.MaxRangedLines <= 0 {
		cfg.MaxRangedLines = 64
	}
	p := &Prodigy{
		env:  env,
		d:    d,
		cfg:  cfg,
		regs: make([]pfhr, cfg.PFHREntries),
		trig: map[dig.NodeID]*trigState{},
	}
	for i := range p.regs {
		p.regs[i].free = true
	}
	maxID := dig.NodeID(0)
	for i := range d.Nodes {
		if d.Nodes[i].ID > maxID {
			maxID = d.Nodes[i].ID
		}
	}
	p.byID = make([]*dig.Node, int(maxID)+1)
	for i := range d.Nodes {
		p.byID[d.Nodes[i].ID] = &d.Nodes[i]
	}
	p.trigByID = make([]*trigState, int(maxID)+1)
	p.leafByID = make([]bool, int(maxID)+1)
	p.rangedOut = make([]bool, int(maxID)+1)
	for i := range d.Nodes {
		id := d.Nodes[i].ID
		p.leafByID[id] = d.IsLeaf(id)
		for _, e := range d.OutEdges(id) {
			if e.Type == dig.Ranged {
				p.rangedOut[id] = true
			}
		}
	}
	for i := range d.Nodes {
		for j := i + 1; j < len(d.Nodes); j++ {
			a, b := &d.Nodes[i], &d.Nodes[j]
			if a.Base < b.Bound && b.Base < a.Bound {
				p.nodesOverlap = true
			}
		}
	}
	for _, id := range d.TriggerNodes() {
		ts := &trigState{
			lastDemandIdx: -1,
			look:          int64(d.Lookahead(id)),
			numSeqs:       int64(d.NumSeqs(id)),
			descending:    d.TriggerCfg[id].Descending,
		}
		p.trig[id] = ts
		p.trigByID[id] = ts
	}
	// PFHR occupancy and sequence counters for the interval metrics.
	// Counters are shared across cores (deduped by name); the occupancy
	// gauge is per core.
	p.obsSeqStarted = env.Obs.Counter("prodigy.seq_started")
	p.obsSeqDropped = env.Obs.Counter("prodigy.seq_dropped")
	p.obsPFHRFull = env.Obs.Counter("prodigy.pfhr_full")
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

// Paused reports whether prefetching is suspended.
func (p *Prodigy) Paused() bool { return p.paused }

// nodeByID is the O(1) node-table lookup (nil for unregistered IDs).
func (p *Prodigy) nodeByID(id dig.NodeID) *dig.Node {
	if int(id) < len(p.byID) {
		return p.byID[id]
	}
	return nil
}

// FreePFHRs returns the number of free registers (test hook).
func (p *Prodigy) FreePFHRs() int {
	n := 0
	for i := range p.regs {
		if p.regs[i].free {
			n++
		}
	}
	return n
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
	if n == nil || !n.Contains(addr) {
		n = p.d.NodeContaining(addr)
		if n == nil {
			return
		}
		if !p.nodesOverlap {
			p.lastNode = n
		}
	}
	if !n.IsTrigger {
		p.demandAdvance(n, addr)
		return
	}
	// Trigger-node demands also advance reactively: if the sequence that
	// covered this element was dropped or squashed, the demand re-arms its
	// downstream walk (partial hiding beats none).
	p.demandAdvance(n, addr)
	ts := p.trigByID[n.ID]
	idx := int64(n.Index(addr))
	if ts.started && idx == ts.lastDemandIdx {
		return // same work item; no new trigger event
	}
	p.Stats.Triggers++
	prevIdx := ts.lastDemandIdx
	ts.lastDemandIdx = idx

	// Drop-on-catch-up: the core has reached this element; any live
	// sequence starting here can only partially hide latency.
	if !p.cfg.SingleSequence {
		p.dropSequence(n.ElemAddr(uint64(idx)))
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
		if s < 0 || uint64(s) >= n.NumElems() {
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
func (p *Prodigy) demandAdvance(n *dig.Node, addr uint64) {
	if !p.rangedOut[n.ID] {
		return
	}
	line := uint64(p.env.LineSize)
	elemAddr := n.ElemAddr(n.Index(addr))
	lineAddr := elemAddr / line * line
	off := (elemAddr - lineAddr) / uint64(n.DataSize)
	p.oneStep = true
	p.advance(n, elemAddr, lineAddr, 1<<off, 0)
	p.oneStep = false
}

// rangedOnly reports whether the walk is in reactive one-step mode, in
// which advance skips single-valued edges.
func (p *Prodigy) rangedOnly() bool { return p.oneStep }

// startSequence begins a prefetch sequence at element seqIdx of the
// trigger node: the first request fetches the trigger data itself.
func (p *Prodigy) startSequence(n *dig.Node, seqIdx uint64) {
	p.Stats.SeqStarted++
	p.env.Obs.Add(p.obsSeqStarted, 1)
	p.env.Obs.Instant(p.env.Core, "seq-start", "prodigy")
	elemAddr := n.ElemAddr(seqIdx)
	p.Stats.IssuedTrigger++
	p.requestElems(n, elemAddr, elemAddr, 1, 0, kindTrigger)
}

// dropSequence frees every PFHR belonging to the sequence anchored at
// trigAddr (Section IV-C1's selective dropping).
func (p *Prodigy) dropSequence(trigAddr uint64) {
	dropped := false
	for i := range p.regs {
		r := &p.regs[i]
		if r.free || r.trigAddr != trigAddr {
			continue
		}
		// Only sequences still waiting on their trigger-node data are
		// abandoned: those can at best partially hide the latency the
		// core is already paying. Walks that advanced deeper are fetching
		// data the core needs imminently and run to completion.
		n := p.nodeByID(r.node)
		if n == nil || !n.IsTrigger {
			continue
		}
		r.free = true
		r.gen++
		dropped = true
	}
	if dropped {
		p.Stats.SeqDropped++
		p.env.Obs.Add(p.obsSeqDropped, 1)
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

func (p *Prodigy) requestElems(n *dig.Node, trigAddr, addr uint64, count uint64, depth int, kind int) {
	if depth > maxWalkDepth {
		return
	}
	line := uint64(p.env.LineSize)
	end := addr + count*uint64(n.DataSize)
	if end > n.Bound {
		end = n.Bound
	}
	elem := uint64(n.DataSize)
	for cur := addr; cur < end; {
		lineAddr := cur / line * line
		next := lineAddr + line
		if next > end {
			next = end
		}
		// Element-offset bitmap within this line (Fig. 9d): the covered
		// elements are contiguous, so the bitmap is a shifted run of ones.
		first := (cur - lineAddr) / elem
		nbits := (next - cur + elem - 1) / elem
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

func (p *Prodigy) requestLine(n *dig.Node, trigAddr, lineAddr uint64, bitmap uint64, depth int, kind int) {
	leaf := p.leafByID[n.ID] || p.oneStep
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
		p.env.IssueProbed(lineAddr, prefetch.UntrackedMeta, lvl)
		return
	}
	// One scan finds both a merge target and the first free register.
	// Merging with an existing PFHR for the same node and line (the offset
	// bitmap exists exactly for this) adopts the newer anchor: keeping
	// the oldest anchor would let one drop-on-catch-up kill every merged
	// sequence the moment the demand reaches the first of them, while
	// allocating one PFHR per sequence would exhaust the 16-entry file.
	idx := -1
	for i := range p.regs {
		r := &p.regs[i]
		if r.free {
			if idx < 0 {
				idx = i
			}
			continue
		}
		if r.node == n.ID && r.lineAddr == lineAddr {
			r.bitmap |= bitmap
			r.trigAddr = trigAddr
			return
		}
	}
	if idx < 0 {
		p.Stats.PFHRFull++
		p.internalDrops++
		p.env.Obs.Add(p.obsPFHRFull, 1)
		return
	}
	r := &p.regs[idx]
	r.free = false
	r.node = n.ID
	r.trigAddr = trigAddr
	r.lineAddr = lineAddr
	r.bitmap = bitmap
	p.countIssuedLine(kind)
	if !p.env.IssueProbed(lineAddr, p.meta(idx), lvl) {
		// The memory system dropped the request (MSHR cap): no fill will
		// ever arrive, so release the register instead of leaking it.
		r.free = true
		r.gen++
		p.Stats.PFHRFull++
		p.env.Obs.Add(p.obsPFHRFull, 1)
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
	return uint32(idx) | uint32(p.regs[idx].gen)<<16
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
	if p.paused {
		// Fills arriving while descheduled retire their PFHRs without
		// walking further.
		idx, gen := unpackMeta(meta)
		if idx < len(p.regs) && !p.regs[idx].free && p.regs[idx].gen == gen {
			p.regs[idx].free = true
			p.regs[idx].gen++
		}
		return
	}
	idx, gen := unpackMeta(meta)
	if idx >= len(p.regs) {
		return
	}
	r := &p.regs[idx]
	if r.free || r.gen != gen {
		return // sequence was dropped while the request was in flight
	}
	n := p.nodeByID(r.node)
	trigAddr, lineAddr, bitmap := r.trigAddr, r.lineAddr, r.bitmap
	r.free = true
	r.gen++
	p.advance(n, trigAddr, lineAddr, bitmap, 0)
}

// advance dereferences the elements named by bitmap in the filled line and
// issues the next level of the DIG walk (Section IV-C2).
func (p *Prodigy) advance(n *dig.Node, trigAddr, lineAddr uint64, bitmap uint64, depth int) {
	edges := p.d.OutEdges(n.ID)
	if len(edges) == 0 {
		return
	}
	elemSize := uint64(n.DataSize)
	for off := uint64(0); bitmap != 0; off, bitmap = off+1, bitmap>>1 {
		if bitmap&1 == 0 {
			continue
		}
		elemAddr := lineAddr + off*elemSize
		if !n.Contains(elemAddr) {
			continue
		}
		val, ok := p.env.Read(elemAddr)
		if !ok {
			continue
		}
		for _, e := range edges {
			dst := p.nodeByID(e.Dst)
			if dst == nil {
				continue
			}
			switch e.Type {
			case dig.SingleValued:
				if p.rangedOnly() {
					continue
				}
				if val >= dst.NumElems() {
					continue
				}
				p.Stats.IssuedSingle++
				p.requestElems(dst, trigAddr, dst.ElemAddr(val), 1, depth+1, kindSingle)
			case dig.Ranged:
				if p.cfg.DisableRanged {
					continue
				}
				// Read the pair (a[i], a[i+1]) bounding the stream. The
				// hardware reads both off the fill (they are adjacent;
				// a line-crossing pair costs one extra read).
				hi, ok := p.env.Read(elemAddr + elemSize)
				if !ok || hi <= val {
					continue
				}
				if val >= dst.NumElems() {
					continue
				}
				if hi > dst.NumElems() {
					hi = dst.NumElems()
				}
				count := hi - val
				maxElems := uint64(p.cfg.MaxRangedLines) * uint64(p.env.LineSize) / uint64(dst.DataSize)
				if count > maxElems {
					count = maxElems
				}
				p.Stats.IssuedRanged++
				p.requestElems(dst, trigAddr, dst.ElemAddr(val), count, depth+1, kindRanged)
			}
		}
	}
}
