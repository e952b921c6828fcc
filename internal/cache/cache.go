// Package cache models the three-level inclusive write-back cache
// hierarchy of Table I: private L1/L2 per core, a shared L3 with a
// directory for MESI coherence, LRU replacement, and per-line prefetch
// bookkeeping (usefulness by level, eviction-before-use) used by the
// Fig. 15/16 experiments.
//
// Data values are not stored (the functional memory lives in
// internal/memspace); the hierarchy tracks tags, states, and timing.
package cache

import (
	"fmt"
	"math/bits"

	"prodigy/internal/obs"
)

// MESI line states.
const (
	stInvalid uint8 = iota
	stShared
	stExclusive
	stModified
)

// Level identifies where an access was serviced.
type Level uint8

// Service levels.
const (
	// LvlNone means "not present anywhere" (probe result).
	LvlNone Level = iota
	// LvlL1 .. LvlL3 are cache hits at that level.
	LvlL1
	LvlL2
	LvlL3
	// LvlMem means the access went to DRAM.
	LvlMem
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlL3:
		return "L3"
	case LvlMem:
		return "MEM"
	}
	return "none"
}

// Config sizes the hierarchy. Sizes are in bytes.
type Config struct {
	Cores    int
	LineSize int

	L1Size, L1Assoc int
	L2Size, L2Assoc int
	// L3Size is the total shared capacity (the paper's 2 MB/core slices,
	// scaled).
	L3Size, L3Assoc int

	// Latencies are cumulative cycles to service a hit at each level.
	L1Lat, L2Lat, L3Lat int
}

// maxCores is the most cores a hierarchy can serve: the L3 directory
// keeps each line's sharers and possible owners, and the hierarchy its
// cores holding orphan lines, as one bit per core in a uint64.
const maxCores = 64

// maxLines bounds each level's capacity in lines (4 Mi lines, 256 MiB
// of 64 B lines; the paper's unscaled Table-I L3 at 32 cores is 1 Mi
// lines), so an absurd size is refused instead of failing an allocation.
const maxLines = 1 << 22

// Validate reports whether cfg describes a buildable hierarchy. The set
// index is computed with a mask, so each level's set count must be a
// power of two, and each level must hold at least one full set; a bad
// sweep configuration surfaces here as an error from New (and
// sim.NewMachine) instead of a panic inside a runner worker.
func (cfg Config) Validate() error {
	if cfg.Cores <= 0 || cfg.Cores > maxCores {
		return fmt.Errorf("cache: Cores = %d, want 1..%d", cfg.Cores, maxCores)
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return fmt.Errorf("cache: LineSize = %d, want a power of two", cfg.LineSize)
	}
	for _, l := range []struct {
		name        string
		size, assoc int
	}{
		{"L1", cfg.L1Size, cfg.L1Assoc},
		{"L2", cfg.L2Size, cfg.L2Assoc},
		{"L3", cfg.L3Size, cfg.L3Assoc},
	} {
		if l.size <= 0 || l.assoc <= 0 {
			return fmt.Errorf("cache: %s size %d / assoc %d, want both > 0", l.name, l.size, l.assoc)
		}
		lines := l.size / cfg.LineSize
		if lines > maxLines {
			return fmt.Errorf("cache: %s holds %d lines (size %d, line %d), want at most %d",
				l.name, lines, l.size, cfg.LineSize, maxLines)
		}
		if l.assoc > lines {
			return fmt.Errorf("cache: %s assoc %d exceeds its %d lines (size %d, line %d)",
				l.name, l.assoc, lines, l.size, cfg.LineSize)
		}
		sets := setCount(l.size, l.assoc, cfg.LineSize)
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache: %s set count %d (size %d, assoc %d, line %d) not a power of two",
				l.name, sets, l.size, l.assoc, cfg.LineSize)
		}
	}
	return nil
}

// setCount is a level's number of sets; Validate guarantees at least one.
func setCount(sizeBytes, assoc, lineSize int) int {
	return sizeBytes / lineSize / assoc
}

// ScaledDefault returns the Table I configuration with capacities scaled
// 1/256 to match the scaled datasets (see DESIGN.md §2): L1 8 KB, L2 32 KB,
// L3 128 KB shared, 64 B lines, latencies 2/6/30.
func ScaledDefault(cores int) Config {
	return Config{
		Cores:    cores,
		LineSize: 64,
		L1Size:   8 << 10, L1Assoc: 4,
		L2Size: 32 << 10, L2Assoc: 8,
		L3Size: 128 << 10, L3Assoc: 16,
		L1Lat: 2, L2Lat: 6, L3Lat: 30,
	}
}

// line is one cache line's coherence and prefetch state. The rest of a
// slot lives in the bank's dense arrays (structure-of-arrays split): its
// tag in tags, a one-byte fingerprint of the tag in the fps words and
// its last-use tick in lru, so a set probe reads one word per eight ways
// and touches a tag only where a fingerprint matched, and a victim
// search reads 4 B per way. tags[i], lane i of fps, lru[i] and lines[i]
// describe the same slot, and lane i is fpInvalid if and only if
// lines[i].state == stInvalid.
type line struct {
	state      uint8
	prefetched bool
	used       bool // demanded at least once since fill
	// fromMem records that the prefetch fill was serviced by DRAM;
	// meaningful only while prefetched && !used.
	fromMem bool
}

// Fingerprint lanes. Byte lane i&7 of fps[i>>3] (little-endian)
// describes slot i: the fingerprint of its line (0..127), fpInvalid for
// an empty slot, or fpPad for a slot that only rounds a set up to a
// multiple of eight ways. The high bit of a lane is set exactly when the
// lane holds no line, so XORing a word with a broadcast fingerprint
// leaves a zero lane only where a resident line's fingerprint matches
// (zeroLanes never flags a lane whose high bit differs), and XORing it
// with broadcast fpInvalid leaves a zero lane exactly at each empty way.
// Neither search needs a per-set mask.
const (
	fpMul     = 0x9E3779B97F4A7C15 // 64-bit Fibonacci hashing multiplier
	lanes01   = 0x0101010101010101
	lanes80   = 0x8080808080808080
	fpInvalid = 0x80
	fpPad     = 0xFF
)

// fingerprint maps a line address to the top seven bits of its
// Fibonacci hash.
//
//hot:inline
func fingerprint(lineAddr uint64) uint64 {
	return lineAddr * fpMul >> 57
}

// zeroLanes flags (bit 7 of each byte) the zero bytes of x. The lowest
// flag is exact; a flag above it may be spurious (the borrow out of a
// zero byte sets it on a byte equal to 1), so callers verify every
// candidate. A byte of 0x80 or more is never flagged.
//
//hot:inline
func zeroLanes(x uint64) uint64 {
	return (x - lanes01) &^ x & lanes80
}

// bank is one set-associative cache. Its fingerprint words are laid out
// in planes of nsets words: word p*nsets+s holds ways 8p..8p+7 of set s,
// and the slots of word w are w*8..w*8+7, so the ways of a set lie in
// ascending slot order and a probe walks the set's words by stepping
// nsets. Ways past assoc in the last plane are padding and never hold a
// line.
type bank struct {
	// tags[i] is the line address held in slot i, meaningful only while
	// the slot holds a line; a probe reads it only to confirm a
	// fingerprint match.
	tags  []uint64
	fps   []uint64
	lines []line
	// lru[i] is the bank tick of slot i's last fill or hit; the victim of
	// a full set is its least lru.
	lru     []uint32
	assoc   int
	nsets   int
	setMask uint64
	tick    uint32
	// sharers is per-set-way core presence (L3 directory only), indexed
	// like lines. A bit is set when its core takes a private copy and
	// cleared only when a write takes the line from it, not when the copy
	// leaves: the stale bits are part of the model (an L3 read hit
	// grants Exclusive only when no other bit is set, and a write counts
	// one invalidation per other bit; docs/SIMULATION.md). Every private
	// copy of a line L3 holds belongs to a core with its bit set or is an
	// orphan (see Hierarchy.orphanMask).
	sharers []uint64
	// owners (L3 directory only), indexed like lines, is a superset of the
	// sharer cores whose private copy may be Exclusive or Modified, so an
	// L3 read hit downgrades only those cores.
	owners []uint64
	// orphan (L2 banks only), indexed like lines, flags a line that a
	// prefetch fill installed while L3 held no copy of it.
	orphan []bool
}

// newBank assumes Config.Validate already approved the geometry (power
// of two set count, bounded line count).
func newBank(sizeBytes, assoc, lineSize int, directory bool) *bank {
	numSets := setCount(sizeBytes, assoc, lineSize)
	words := (assoc + 7) / 8 * numSets
	b := &bank{
		tags:    make([]uint64, 8*words),
		fps:     make([]uint64, words),
		lines:   make([]line, 8*words),
		lru:     make([]uint32, 8*words),
		assoc:   assoc,
		nsets:   numSets,
		setMask: uint64(numSets - 1),
	}
	// In the last plane, lanes assoc%8..7 are padding.
	var pad uint64
	if assoc&7 != 0 {
		pad = fpPad * lanes01 << (8 * (assoc & 7))
	}
	for w := range b.fps {
		b.fps[w] = fpInvalid * lanes01
		if w >= words-numSets {
			b.fps[w] |= pad
		}
	}
	if directory {
		b.sharers = make([]uint64, 8*words)
		b.owners = make([]uint64, 8*words)
	}
	return b
}

// setLane writes slot i's fingerprint lane.
func (b *bank) setLane(i int, fp uint64) {
	sh := uint(i&7) * 8
	w := &b.fps[i>>3]
	*w = *w&^(0xFF<<sh) | fp<<sh
}

// findIdx returns the global slot index of lineAddr in b.lines, or -1.
// This is the hot-path lookup, inlined at every call site: one XOR and
// zero test per eight ways, and a tag compare only on a way whose
// fingerprint matched. Tags are unique within a set, so the first
// confirmed way is the only one. The fingerprint and zero test are
// written out rather than called: the helpers' inlining overhead would
// take the function past the inlining budget.
//
//hot:inline
func (b *bank) findIdx(lineAddr uint64) int {
	for w := int(lineAddr & b.setMask); w < len(b.fps); w += b.nsets {
		x := b.fps[w] ^ lineAddr*fpMul>>57*lanes01 // broadcast fingerprint
		for m := (x - lanes01) &^ x & lanes80; m != 0; m &= m - 1 {
			if i := w<<3 | bits.TrailingZeros64(m)>>3; b.tags[i] == lineAddr {
				return i
			}
		}
	}
	return -1
}

// victim returns the slot a fill of lineAddr takes when lineAddr is not
// in the bank: the first empty way if any, else the least-recently-used
// way (first way on ties). Fills that follow a miss at this level call
// it directly instead of searching the set for the line again.
func (b *bank) victim(lineAddr uint64) int {
	s := int(lineAddr & b.setMask)
	for w := s; w < len(b.fps); w += b.nsets {
		if m := zeroLanes(b.fps[w] ^ fpInvalid*lanes01); m != 0 {
			return w<<3 | bits.TrailingZeros64(m)>>3
		}
	}
	// The set is full: take the least lru, the lowest slot on ties, as the
	// minimum of lru<<32 | slot (slots fit in 32 bits: Validate bounds the
	// lines per level), which compiles to branch-free selects. A whole
	// word's eight ways reduce as a tree, so the selects do not form one
	// long dependency chain.
	best := ^uint64(0)
	for w, k := s, 0; k < b.assoc; w, k = w+b.nsets, k+8 {
		i := w << 3
		l := b.lru[i : i+8 : i+8]
		if k+8 <= b.assoc {
			best = min(best,
				min(min(lruKey(l[0], i), lruKey(l[1], i+1)), min(lruKey(l[2], i+2), lruKey(l[3], i+3))),
				min(min(lruKey(l[4], i+4), lruKey(l[5], i+5)), min(lruKey(l[6], i+6), lruKey(l[7], i+7))))
			continue
		}
		for j, lru := range l[:b.assoc-k] {
			best = min(best, lruKey(lru, i+j))
		}
	}
	return int(uint32(best))
}

// lruKey orders slot i, last used at tick lru, for victim: by lru, then
// by slot.
func lruKey(lru uint32, i int) uint64 {
	return uint64(lru)<<32 | uint64(i)
}

// findOrVictim returns (slot, true) if lineAddr is resident, else
// (victim slot, false). Only fills of lines that may already be
// resident (prefetch fills) need it.
func (b *bank) findOrVictim(lineAddr uint64) (int, bool) {
	if i := b.findIdx(lineAddr); i >= 0 {
		return i, true
	}
	return b.victim(lineAddr), false
}

// fill installs ln for lineAddr in slot i, dropping whatever the slot
// held, and makes it the set's most recently used way.
func (b *bank) fill(i int, lineAddr uint64, ln line) {
	b.lines[i] = ln
	b.tags[i] = lineAddr
	b.setLane(i, fingerprint(lineAddr))
	b.touchIdx(i)
}

//hot:inline
func (b *bank) touchIdx(i int) {
	b.tick++
	b.lru[i] = b.tick
}

// invalidate drops the line if present, returning its pre-invalidation
// state.
func (b *bank) invalidate(lineAddr uint64) (uint8, bool) {
	i := b.findIdx(lineAddr)
	if i < 0 {
		return stInvalid, false
	}
	return b.invalidateIdx(i), true
}

// invalidateIdx drops the line in slot i, returning its
// pre-invalidation state.
func (b *bank) invalidateIdx(i int) uint8 {
	st := b.lines[i].state
	b.lines[i] = line{}
	b.setLane(i, fpInvalid)
	return st
}

// downgrade moves an Exclusive/Modified copy to Shared, reporting
// whether a writeback was generated.
func (b *bank) downgrade(lineAddr uint64) (wroteBack bool) {
	i := b.findIdx(lineAddr)
	if i < 0 {
		return false
	}
	return b.downgradeIdx(i)
}

// downgradeIdx is downgrade for the line in slot i.
func (b *bank) downgradeIdx(i int) (wroteBack bool) {
	ln := &b.lines[i]
	if ln.state == stModified || ln.state == stExclusive {
		wroteBack = ln.state == stModified
		ln.state = stShared
	}
	return wroteBack
}

// markUsed sets the demanded bit if the line is present.
func (b *bank) markUsed(lineAddr uint64) {
	if i := b.findIdx(lineAddr); i >= 0 {
		b.lines[i].used = true
	}
}

// Stats aggregates hierarchy-wide counters.
type Stats struct {
	// Demand access counts and hits per level.
	DemandAccesses uint64
	DemandL1Hits   uint64
	DemandL2Hits   uint64
	DemandL3Hits   uint64
	DemandMem      uint64

	// Writebacks counts dirty data leaving a level: a Modified L3
	// victim or a dirty private copy it back-invalidates (one per L3
	// eviction), each Modified level a remote access downgrades or
	// invalidates, and a dirty L2 victim with no L3 copy.
	// Invalidations counts each other sharer a write serviced from L3
	// takes the line from, held or not, and each level an upgrade
	// invalidates.
	Writebacks    uint64
	Invalidations uint64

	// Prefetch bookkeeping (Fig. 15). A prefetched line's first demand
	// use counts once, at the level it hit (a timely use);
	// PrefetchFillsMem and PrefetchTimelyMem are the DRAM-serviced
	// subsets of the fills and of their timely uses.
	PrefetchFills     uint64
	PrefetchFillsMem  uint64
	PrefetchL1Hits    uint64 // demand found prefetched-unused line in L1
	PrefetchL2Hits    uint64
	PrefetchL3Hits    uint64
	PrefetchTimelyMem uint64
	PrefetchEvicted   uint64 // prefetched line left hierarchy unused

	// OrphanFills counts prefetch fills that installed a line in an L2
	// while L3 held no copy of it: the line left L3 between the
	// prefetch's L3 probe and its fill, and the private copy breaks
	// inclusion until it leaves (see Hierarchy.orphanMask).
	OrphanFills uint64
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg       Config
	lineShift uint
	l1, l2    []*bank
	l3        *bank
	// orphans[c] counts core c's L2 lines flagged orphan, and orphanMask
	// has bit c set exactly when orphans[c] > 0. With the sharer bits,
	// the mask names every core that can hold a line privately: a line
	// not in L3 is held only as an orphan, and a line in L3 only by its
	// sharers and orphan holders. The coherence walks probe just those
	// cores.
	orphans    []int32
	orphanMask uint64
	Stats      Stats
	// OnL3Evict, when set, is called with the evicted line address
	// (used by DROPLET-style prefetchers that watch DRAM traffic). It
	// runs in the middle of a fill and must not call back into the
	// hierarchy.
	OnL3Evict func(lineAddr uint64)
}

// Attach registers the hierarchy's Stats as interval counters: demand
// accesses and per-level hits (from which per-interval L1/L2/LLC miss
// rates follow), hierarchy misses, prefetch fills, writebacks, and the
// prefetch outcomes. Safe to call with a nil recorder.
func (h *Hierarchy) Attach(r *obs.Recorder) {
	if r == nil {
		return
	}
	s := &h.Stats
	r.CounterFunc("cache.demand", func() uint64 { return s.DemandAccesses })
	r.CounterFunc("cache.l1_hit", func() uint64 { return s.DemandL1Hits })
	r.CounterFunc("cache.l2_hit", func() uint64 { return s.DemandL2Hits })
	r.CounterFunc("cache.l3_hit", func() uint64 { return s.DemandL3Hits })
	r.CounterFunc("cache.mem", func() uint64 { return s.DemandMem })
	r.CounterFunc("cache.pf_fill", func() uint64 { return s.PrefetchFills })
	r.CounterFunc("cache.writeback", func() uint64 { return s.Writebacks })
	// Lifecycle counters double as trace counter tracks so prefetch
	// quality is visible over time in the timeline viewer. A timely use
	// is a demand's first hit on a prefetched line, at whichever level.
	r.TrackCounterFunc("cache.pf_timely", func() uint64 {
		return s.PrefetchL1Hits + s.PrefetchL2Hits + s.PrefetchL3Hits
	})
	r.TrackCounterFunc("cache.pf_evicted_unused", func() uint64 { return s.PrefetchEvicted })
}

// New builds a hierarchy from cfg, rejecting geometries Validate refuses.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, orphans: make([]int32, cfg.Cores)}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		h.lineShift++
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, newBank(cfg.L1Size, cfg.L1Assoc, cfg.LineSize, false))
		l2 := newBank(cfg.L2Size, cfg.L2Assoc, cfg.LineSize, false)
		l2.orphan = make([]bool, len(l2.lines))
		h.l2 = append(h.l2, l2)
	}
	h.l3 = newBank(cfg.L3Size, cfg.L3Assoc, cfg.LineSize, true)
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LineAddr maps a byte address to its line address.
//
//hot:inline
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return addr >> h.lineShift }

// Result of a demand access.
type Result struct {
	// Lat is the access latency in cycles excluding any DRAM time (the
	// caller adds the memory controller's latency when Level == LvlMem).
	Lat int
	// Level is where the access was serviced.
	Level Level
}

// Access performs a demand read (write=false) or write (write=true) by
// core to the line containing addr, updating states and stats. The line is
// filled on a miss (the caller accounts DRAM latency separately).
//
// This is the simulator's hottest function: every path below runs without
// heap allocation (BenchmarkHierarchyAccess pins 0 allocs/op).
//
//hot:path
func (h *Hierarchy) Access(core int, addr uint64, write bool) Result {
	la := h.LineAddr(addr)
	h.Stats.DemandAccesses++

	// L1.
	l1 := h.l1[core]
	if i := l1.findIdx(la); i >= 0 {
		ln := &l1.lines[i]
		l1.touchIdx(i)
		if ln.prefetched && !ln.used {
			h.Stats.PrefetchL1Hits++
			h.countTimelyMem(ln)
			h.l2[core].markUsed(la)
			h.l3.markUsed(la)
		}
		ln.used = true
		h.Stats.DemandL1Hits++
		if write && ln.state != stModified {
			h.upgrade(core, la, i, h.l2[core].findIdx(la))
		}
		return Result{Lat: h.cfg.L1Lat, Level: LvlL1}
	}

	// L2.
	l2 := h.l2[core]
	if i := l2.findIdx(la); i >= 0 {
		ln := &l2.lines[i]
		l2.touchIdx(i)
		if ln.prefetched && !ln.used {
			h.Stats.PrefetchL2Hits++
			h.countTimelyMem(ln)
			h.l3.markUsed(la)
		}
		ln.used = true
		st := ln.state
		j := l1.victim(la)
		h.fillL1(core, j, la, line{state: st, prefetched: ln.prefetched, used: true, fromMem: ln.fromMem})
		h.Stats.DemandL2Hits++
		if write && st != stModified {
			h.upgrade(core, la, j, i)
		}
		return Result{Lat: h.cfg.L2Lat, Level: LvlL2}
	}

	// L3.
	if i := h.l3.findIdx(la); i >= 0 {
		ln := &h.l3.lines[i]
		h.l3.touchIdx(i)
		if ln.prefetched && !ln.used {
			h.Stats.PrefetchL3Hits++
			h.countTimelyMem(ln)
			h.markPrivateUsed(la, h.l3.sharers[i]|h.orphanMask)
		}
		ln.used = true
		prefetched, fromMem := ln.prefetched, ln.fromMem
		state := h.serviceFromL3(core, la, i, write)
		h.fillPrivate(core, la, line{state: state, prefetched: prefetched, used: true, fromMem: fromMem})
		h.Stats.DemandL3Hits++
		return Result{Lat: h.cfg.L3Lat, Level: LvlL3}
	}

	// DRAM.
	h.Stats.DemandMem++
	state := uint8(stExclusive)
	if write {
		state = stModified
	}
	h.fillL3(core, h.l3.victim(la), la, line{state: state})
	h.fillPrivate(core, la, line{state: state, used: true})
	return Result{Lat: h.cfg.L3Lat, Level: LvlMem}
}

// countTimelyMem counts the first demand use of the prefetched-unused
// line ln in PrefetchTimelyMem when DRAM serviced its fill: those are
// the timely uses that converted a would-be miss.
//
//hot:inline
func (h *Hierarchy) countTimelyMem(ln *line) {
	if ln.fromMem {
		h.Stats.PrefetchTimelyMem++
	}
}

// serviceFromL3 handles coherence when core reads/writes the line la held
// in slot i of L3: downgrades or invalidates other cores' private copies
// as needed, records core as a sharer and returns the state the
// requester's private copies should take.
//
// The coherence walks (this one, upgrade and evictL3) visit only the
// cores the directory names, and probe each one's L2 first, skipping its
// L1 when the L2 misses: every L1 fill follows an L2 fill or hit, an L2
// victim takes its L1 copy with it, and every coherence invalidation
// drops both, so a core's L1 lines are always a subset of its L2 lines.
// The writebacks and invalidations counted are those of the levels that
// actually held the line.
func (h *Hierarchy) serviceFromL3(core int, la uint64, i int, write bool) uint8 {
	sh, own := &h.l3.sharers[i], &h.l3.owners[i]
	me := uint64(1) << uint(core)
	others := *sh &^ me
	if write {
		for m := others; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if j := h.l2[c].findIdx(la); j >= 0 {
				if st, ok := h.l1[c].invalidate(la); ok && st == stModified {
					h.Stats.Writebacks++
				}
				if h.invalidateL2(c, j) == stModified {
					h.Stats.Writebacks++
				}
			}
			h.Stats.Invalidations++
		}
		*sh, *own = me, me
		return stModified
	}
	*sh |= me
	if others == 0 {
		*own = me
		return stExclusive
	}
	// Downgrade the other sharers that may hold the line Exclusive or
	// Modified. A sharer outside owners holds it Shared or not at all,
	// where a downgrade changes nothing. Afterwards every copy is Shared.
	for m := others & *own; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		j := h.l2[c].findIdx(la)
		if j < 0 {
			continue
		}
		if h.l1[c].downgrade(la) {
			h.Stats.Writebacks++
		}
		if h.l2[c].downgradeIdx(j) {
			h.Stats.Writebacks++
		}
	}
	*own = 0
	return stShared
}

// upgrade acquires write permission for a line core already holds, in
// slot i1 of its L1 and slot i2 (-1 if absent) of its L2. Every other
// copy is invalidated: with an L3 copy, the holders are its sharers and
// the orphan holders; without one, the orphan holders only.
func (h *Hierarchy) upgrade(core int, la uint64, i1, i2 int) {
	me := uint64(1) << uint(core)
	holders := h.orphanMask
	l3i := h.l3.findIdx(la)
	if l3i >= 0 {
		holders |= h.l3.sharers[l3i]
	}
	for m := holders &^ me; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		i := h.l2[c].findIdx(la)
		if i < 0 {
			continue
		}
		if _, ok := h.l1[c].invalidate(la); ok {
			h.Stats.Invalidations++
		}
		h.invalidateL2(c, i)
		h.Stats.Invalidations++
	}
	h.l1[core].lines[i1].state = stModified
	if i2 >= 0 {
		h.l2[core].lines[i2].state = stModified
	}
	if l3i >= 0 {
		h.l3.sharers[l3i], h.l3.owners[l3i] = me, me
	}
}

// invalidateL2 drops the line in slot i of core's L2, returning its
// pre-invalidation state.
func (h *Hierarchy) invalidateL2(core, i int) uint8 {
	h.unorphan(core, i)
	return h.l2[core].invalidateIdx(i)
}

// unorphan clears the orphan flag of slot i in core's L2, if set, before
// the slot's line leaves.
//
//hot:inline
func (h *Hierarchy) unorphan(core, i int) {
	if h.orphanMask&(1<<uint(core)) == 0 || !h.l2[core].orphan[i] {
		return
	}
	h.l2[core].orphan[i] = false
	if h.orphans[core]--; h.orphans[core] == 0 {
		h.orphanMask &^= 1 << uint(core)
	}
}

// markUsed propagates the demanded bit down so Fig. 15 counts each
// prefetched line once.
func (h *Hierarchy) markUsed(core int, la uint64) {
	h.l1[core].markUsed(la)
	h.l2[core].markUsed(la)
	h.l3.markUsed(la)
}

// markPrivateUsed sets the demanded bit of la's private copies in the
// cores of holders. A demand's first use of a prefetched line at the L3
// consumes the fill, so the issuer's own prefetched copies must not
// count a second timely use when it hits them later. Only the L3's
// sharers and the orphan holders can hold a copy, and a core's L1 lines
// are a subset of its L2 lines (see serviceFromL3).
func (h *Hierarchy) markPrivateUsed(la, holders uint64) {
	for m := holders; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if j := h.l2[c].findIdx(la); j >= 0 {
			h.l2[c].lines[j].used = true
			h.l1[c].markUsed(la)
		}
	}
}

// fillPrivate installs la, which missed core's L1 and L2, in both.
func (h *Hierarchy) fillPrivate(core int, la uint64, ln line) {
	h.fillL2(core, h.l2[core].victim(la), la, ln)
	h.fillL1(core, h.l1[core].victim(la), la, ln)
}

// fillL1, fillL2 and fillL3 install la as ln in slot i of their level, a
// victim slot that victim or findOrVictim chose, evicting what it holds.
func (h *Hierarchy) fillL1(core, i int, la uint64, ln line) {
	// A dirty L1 victim falls back to L2/L3 silently (inclusive hierarchy:
	// the outer levels still hold the line and the directory bit).
	h.l1[core].fill(i, la, ln)
}

func (h *Hierarchy) fillL2(core, i int, la uint64, ln line) {
	b := h.l2[core]
	if b.lines[i].state != stInvalid {
		h.unorphan(core, i)
		victimAddr := b.tags[i]
		dirty := b.lines[i].state == stModified
		// L1 must stay a subset of L2.
		if st, ok := h.l1[core].invalidate(victimAddr); ok && st == stModified {
			dirty = true
		}
		if dirty {
			// The victim leaves the private levels with modified data; the
			// inclusive L3 copy becomes the owner of that dirtiness so its
			// eventual eviction generates the writeback (previously the
			// dirty state was dropped here and the writeback undercounted).
			if li := h.l3.findIdx(victimAddr); li >= 0 {
				h.l3.lines[li].state = stModified
			} else {
				// An orphan line that its core wrote has no L3 copy to
				// take the dirtiness, so the writeback is counted here.
				h.Stats.Writebacks++
			}
		}
	}
	b.fill(i, la, ln)
}

// fillL3 takes ln's state as Modified or else Exclusive: the L3 copy is
// never installed Shared.
func (h *Hierarchy) fillL3(core, i int, la uint64, ln line) {
	b := h.l3
	if b.lines[i].state != stInvalid {
		h.evictL3(b.tags[i], i)
	}
	if ln.state != stModified {
		ln.state = stExclusive
	}
	b.fill(i, la, ln)
	b.sharers[i], b.owners[i] = 1<<uint(core), 1<<uint(core)
}

// evictL3 back-invalidates every private copy (inclusive hierarchy) and
// accounts writebacks and unused-prefetch evictions. i is the victim's
// global slot index in the L3 bank. Only the victim's sharers and the
// cores holding orphan lines can hold a copy.
func (h *Hierarchy) evictL3(victimAddr uint64, i int) {
	ln := &h.l3.lines[i]
	dirty := ln.state == stModified
	for m := h.l3.sharers[i] | h.orphanMask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		j := h.l2[c].findIdx(victimAddr)
		if j < 0 {
			continue
		}
		if st, ok := h.l1[c].invalidate(victimAddr); ok && st == stModified {
			dirty = true
		}
		if h.invalidateL2(c, j) == stModified {
			dirty = true
		}
	}
	if dirty {
		h.Stats.Writebacks++
	}
	if ln.prefetched && !ln.used {
		h.Stats.PrefetchEvicted++
	}
	if h.OnL3Evict != nil {
		h.OnL3Evict(victimAddr)
	}
}

// TouchUsed marks addr's line as demanded. The engine calls this when a
// demand access merged with the line while its prefetch was still in
// flight, so the prefetch still counts as useful (it hid partial latency).
func (h *Hierarchy) TouchUsed(core int, addr uint64) {
	h.markUsed(core, h.LineAddr(addr))
}

// Probe reports the level at which addr currently resides for core, without
// updating any state. Prefetchers use it to skip redundant requests.
//
//hot:path
func (h *Hierarchy) Probe(core int, addr uint64) Level {
	la := h.LineAddr(addr)
	if h.l1[core].findIdx(la) >= 0 {
		return LvlL1
	}
	if h.l2[core].findIdx(la) >= 0 {
		return LvlL2
	}
	if h.l3.findIdx(la) >= 0 {
		return LvlL3
	}
	return LvlNone
}

// FillPrefetch installs a completed prefetch into core's L1 (non-binding
// prefetches place data in the L1D per Section IV) and, for inclusion,
// into L2/L3. fromLevel is where the prefetch was serviced; lines already
// resident closer than L1 are just refreshed.
//
//hot:path
func (h *Hierarchy) FillPrefetch(core int, addr uint64, fromLevel Level) {
	h.fillPrefetchAt(core, addr, fromLevel, false)
}

// FillPrefetchL2 is FillPrefetch stopping at the L2.
func (h *Hierarchy) FillPrefetchL2(core int, addr uint64, fromLevel Level) {
	h.fillPrefetchAt(core, addr, fromLevel, true)
}

func (h *Hierarchy) fillPrefetchAt(core int, addr uint64, fromLevel Level, l2Only bool) {
	la := h.LineAddr(addr)
	h.Stats.PrefetchFills++
	fromMem := fromLevel == LvlMem
	if fromMem {
		h.Stats.PrefetchFillsMem++
	}
	// The line may have become resident at any level since the prefetch
	// was issued, so each level is searched before it is filled. It may
	// also have left L3 since a prefetch serviced there probed it; the
	// private copy is then an orphan.
	l3i := h.l3.findIdx(la)
	if l3i >= 0 {
		h.l3.sharers[l3i] |= 1 << uint(core)
		h.l3.touchIdx(l3i)
	} else if fromMem {
		l3i = h.l3.victim(la)
		h.fillL3(core, l3i, la, line{prefetched: true, fromMem: true})
	}
	ln := line{state: stShared, prefetched: true, fromMem: fromMem}
	if i, hit := h.l2[core].findOrVictim(la); hit {
		h.l2[core].touchIdx(i)
		// A copy kept from before may be Exclusive or Modified (an orphan
		// its core wrote), and core is now a sharer of the L3 copy.
		if l3i >= 0 && h.l2[core].lines[i].state >= stExclusive {
			h.l3.owners[l3i] |= 1 << uint(core)
		}
	} else {
		h.fillL2(core, i, la, ln)
		if l3i < 0 {
			h.l2[core].orphan[i] = true
			h.orphans[core]++
			h.orphanMask |= 1 << uint(core)
			h.Stats.OrphanFills++
		}
	}
	if l2Only {
		return
	}
	if i, hit := h.l1[core].findOrVictim(la); hit {
		h.l1[core].touchIdx(i)
	} else {
		h.fillL1(core, i, la, ln)
	}
}
