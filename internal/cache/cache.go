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

// Validate reports whether cfg describes a buildable hierarchy. The set
// index is computed with a mask, so each level's set count must be a
// power of two; a bad sweep configuration surfaces here as an error from
// New (and sim.NewMachine) instead of a panic inside a runner worker.
func (cfg Config) Validate() error {
	if cfg.Cores <= 0 {
		return fmt.Errorf("cache: Cores = %d, want > 0", cfg.Cores)
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
		sets := setCount(l.size, l.assoc, cfg.LineSize)
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache: %s set count %d (size %d, assoc %d, line %d) not a power of two",
				l.name, sets, l.size, l.assoc, cfg.LineSize)
		}
	}
	return nil
}

func setCount(sizeBytes, assoc, lineSize int) int {
	numSets := sizeBytes / lineSize / assoc
	if numSets == 0 {
		numSets = 1
	}
	return numSets
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

// Prefetch-tag encoding: the issuing core in the low bits plus one flag
// recording whether the fill was serviced from DRAM. One packed byte
// (it occupies what was padding in line), so tagging costs no space and
// no extra set state.
const (
	pfCoreMask uint8 = 0x7F
	pfMemBit   uint8 = 0x80
)

// line is one cache line's metadata beyond its tag. The tag lives in
// the bank's dense tags array (structure-of-arrays split) so the
// hot-path set scan walks contiguous uint64s instead of striding over
// these wider structs; tags[i] and lines[i] describe the same slot, and
// tags[i] == 0 if and only if lines[i].state == stInvalid.
type line struct {
	state      uint8
	prefetched bool
	used       bool // demanded at least once since fill
	// pfTag attributes a prefetched line to its issuing core (pfCoreMask)
	// and records DRAM service (pfMemBit); meaningful only while
	// prefetched && !used.
	pfTag uint8
	lru   uint32
}

// bank is one set-associative cache.
type bank struct {
	// tags[i] is slot i's full line address + 1 (0 = invalid), kept
	// separate from lines so findIdx/findOrVictim scan a dense array.
	tags    []uint64
	lines   []line
	assoc   int
	setMask uint64
	tick    uint32
	// filter counts resident lines per line-address hash bucket: a zero
	// bucket proves the line is absent, letting findIdx skip the set
	// scan. Prefetch probes miss every level most of the time, so the
	// reject path is the common one. The counter cannot overflow: a
	// bucket counts at most every resident line in the bank, which is
	// far below 2^16. setTag keeps it exact.
	filter []uint16
	fmask  uint64
	// sharers is per-set-way core presence (L3 directory only), indexed
	// like lines.
	sharers []uint64
}

// filterFib is the 64-bit Fibonacci hashing multiplier; the shifted
// product spreads line addresses that alias in their low bits.
const filterFib = 0x9E3779B97F4A7C15

//hot:inline
func (b *bank) fhash(lineAddr uint64) uint64 {
	return (lineAddr * filterFib) >> 32 & b.fmask
}

// setTag points slot i at a new tag (0 = invalidate), keeping the
// presence filter in step. Every tag write goes through here.
func (b *bank) setTag(i int, tag uint64) {
	if old := b.tags[i]; old != 0 {
		b.filter[b.fhash(old-1)]--
	}
	if tag != 0 {
		b.filter[b.fhash(tag-1)]++
	}
	b.tags[i] = tag
}

// newBank assumes Config.Validate already approved the geometry (power
// of two set count).
func newBank(sizeBytes, assoc, lineSize int, directory bool) *bank {
	numSets := setCount(sizeBytes, assoc, lineSize)
	fsize := 4
	for fsize < 4*numSets*assoc {
		fsize *= 2
	}
	b := &bank{
		tags:    make([]uint64, numSets*assoc),
		lines:   make([]line, numSets*assoc),
		assoc:   assoc,
		setMask: uint64(numSets - 1),
		filter:  make([]uint16, fsize),
		fmask:   uint64(fsize - 1),
	}
	if directory {
		b.sharers = make([]uint64, numSets*assoc)
	}
	return b
}

// findIdx returns the global slot index of lineAddr in b.lines, or -1.
// This is the hot-path lookup: one scan over the set, no slicing.
//
//hot:inline
func (b *bank) findIdx(lineAddr uint64) int {
	if b.filter[b.fhash(lineAddr)] == 0 {
		return -1
	}
	s := int(lineAddr&b.setMask) * b.assoc
	tag := lineAddr + 1
	for i := s; i < s+b.assoc; i++ {
		if b.tags[i] == tag {
			return i
		}
	}
	return -1
}

// findOrVictim scans the set once, returning (slot, true) on a hit and
// (victim slot, false) on a miss. The victim is the first invalid way if
// any, else the least-recently-used way (first index on ties) — the same
// policy the old separate lookup+victim pair implemented in two scans.
func (b *bank) findOrVictim(lineAddr uint64) (int, bool) {
	s := int(lineAddr&b.setMask) * b.assoc
	tag := lineAddr + 1
	invalid := -1
	victim, bestLRU := s, uint32(^uint32(0))
	for i := s; i < s+b.assoc; i++ {
		if b.tags[i] == tag {
			return i, true
		}
		if b.tags[i] == 0 {
			if invalid < 0 {
				invalid = i
			}
		} else if ln := &b.lines[i]; ln.lru < bestLRU {
			victim, bestLRU = i, ln.lru
		}
	}
	if invalid >= 0 {
		return invalid, false
	}
	return victim, false
}

// lookup returns the way index within the set, or -1 (kept for tests and
// inspection; the hot path uses findIdx).
func (b *bank) lookup(lineAddr uint64) int {
	if i := b.findIdx(lineAddr); i >= 0 {
		return i - int(lineAddr&b.setMask)*b.assoc
	}
	return -1
}

func (b *bank) way(lineAddr uint64, w int) *line {
	s := int(lineAddr&b.setMask) * b.assoc
	return &b.lines[s+w]
}

//hot:inline
func (b *bank) touchIdx(i int) {
	b.tick++
	b.lines[i].lru = b.tick
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
	b.setTag(i, 0)
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

// setModified upgrades the line's state if present.
func (b *bank) setModified(lineAddr uint64) {
	if i := b.findIdx(lineAddr); i >= 0 {
		b.lines[i].state = stModified
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

	// LLCMisses counts demand accesses that missed the whole hierarchy
	// (== DemandMem); kept separately for the Fig. 13/16 classifiers.
	Writebacks    uint64
	Invalidations uint64

	// Prefetch bookkeeping (Fig. 15).
	PrefetchFills   uint64
	PrefetchL1Hits  uint64 // demand found prefetched-unused line in L1
	PrefetchL2Hits  uint64
	PrefetchL3Hits  uint64
	PrefetchEvicted uint64 // prefetched line left hierarchy unused
}

// LifeStats is one core's slice of the prefetch-lifecycle ledger. Fill
// and outcome events are attributed to the *issuing* core via the packed
// per-line tag (not the core whose demand later found the line);
// DemandMisses is demand-side and belongs to the accessing core. The
// engine joins both views into per-core accuracy/coverage/timeliness.
type LifeStats struct {
	// Fills counts completed prefetch fills; FillsMem the subset serviced
	// from DRAM (the coverage-relevant ones).
	Fills    uint64
	FillsMem uint64
	// Timely counts prefetched lines whose first demand use found them
	// already resident (the prefetch hid the full latency); TimelyMem is
	// the DRAM-serviced subset.
	Timely    uint64
	TimelyMem uint64
	// EvictedUnused counts prefetched lines that left the hierarchy
	// without ever being demanded (the "inaccurate" lifecycle class).
	EvictedUnused uint64
	// DemandMisses counts this core's demand accesses serviced by DRAM —
	// the misses no prefetch covered.
	DemandMisses uint64
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg       Config
	lineShift uint
	l1, l2    []*bank
	l3        *bank
	Stats     Stats
	// Life is the per-core prefetch-lifecycle ledger (see LifeStats for
	// which side of an event each index refers to).
	Life []LifeStats
	// OnL3Evict, when set, is called with the evicted line address
	// (used by DROPLET-style prefetchers that watch DRAM traffic).
	OnL3Evict func(lineAddr uint64)

	// Interval-metrics hooks (inert when obs is nil).
	obs          *obs.Recorder
	obsAccess    obs.CounterID
	obsL1Hit     obs.CounterID
	obsL2Hit     obs.CounterID
	obsL3Hit     obs.CounterID
	obsMem       obs.CounterID
	obsPFFill    obs.CounterID
	obsWriteBk   obs.CounterID
	obsPFTimely  obs.CounterID
	obsPFEvicted obs.CounterID
}

// Attach registers the hierarchy's observability counters: demand
// accesses and per-level hits (from which per-interval L1/L2/LLC miss
// rates follow), hierarchy misses, prefetch fills, and writebacks. Safe
// to call with a nil recorder.
func (h *Hierarchy) Attach(r *obs.Recorder) {
	if r == nil {
		return
	}
	h.obs = r
	h.obsAccess = r.Counter("cache.demand")
	h.obsL1Hit = r.Counter("cache.l1_hit")
	h.obsL2Hit = r.Counter("cache.l2_hit")
	h.obsL3Hit = r.Counter("cache.l3_hit")
	h.obsMem = r.Counter("cache.mem")
	h.obsPFFill = r.Counter("cache.pf_fill")
	h.obsWriteBk = r.Counter("cache.writeback")
	// Lifecycle counters double as trace counter tracks so prefetch
	// quality is visible over time in the timeline viewer.
	h.obsPFTimely = r.TrackCounter("cache.pf_timely")
	h.obsPFEvicted = r.TrackCounter("cache.pf_evicted_unused")
}

// New builds a hierarchy from cfg, rejecting geometries Validate refuses.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, Life: make([]LifeStats, cfg.Cores)}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		h.lineShift++
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, newBank(cfg.L1Size, cfg.L1Assoc, cfg.LineSize, false))
		h.l2 = append(h.l2, newBank(cfg.L2Size, cfg.L2Assoc, cfg.LineSize, false))
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
	// PrefetchHit is the level at which a prefetched-and-not-yet-demanded
	// line satisfied this access (LvlNone if the hit was not
	// prefetch-provided).
	PrefetchHit Level
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
	h.obs.Add(h.obsAccess, 1)

	// L1.
	l1 := h.l1[core]
	if i := l1.findIdx(la); i >= 0 {
		ln := &l1.lines[i]
		l1.touchIdx(i)
		res := Result{Lat: h.cfg.L1Lat, Level: LvlL1}
		if ln.prefetched && !ln.used {
			res.PrefetchHit = LvlL1
			h.Stats.PrefetchL1Hits++
			h.lifeTimely(ln.pfTag)
			h.markUsed(core, la)
		}
		ln.used = true
		h.Stats.DemandL1Hits++
		h.obs.Add(h.obsL1Hit, 1)
		if write && ln.state != stModified {
			h.upgrade(core, la)
		}
		return res
	}

	// L2.
	l2 := h.l2[core]
	if i := l2.findIdx(la); i >= 0 {
		ln := &l2.lines[i]
		l2.touchIdx(i)
		res := Result{Lat: h.cfg.L2Lat, Level: LvlL2}
		if ln.prefetched && !ln.used {
			res.PrefetchHit = LvlL2
			h.Stats.PrefetchL2Hits++
			h.lifeTimely(ln.pfTag)
			h.markUsed(core, la)
		}
		ln.used = true
		st := ln.state
		h.fillL1(core, la, st, ln.prefetched, true, ln.pfTag)
		h.Stats.DemandL2Hits++
		h.obs.Add(h.obsL2Hit, 1)
		if write && st != stModified {
			h.upgrade(core, la)
		}
		return res
	}

	// L3.
	if i := h.l3.findIdx(la); i >= 0 {
		ln := &h.l3.lines[i]
		h.l3.touchIdx(i)
		res := Result{Lat: h.cfg.L3Lat, Level: LvlL3}
		if ln.prefetched && !ln.used {
			res.PrefetchHit = LvlL3
			h.Stats.PrefetchL3Hits++
			h.lifeTimely(ln.pfTag)
		}
		ln.used = true
		prefetched := ln.prefetched
		pfTag := ln.pfTag
		sh := &h.l3.sharers[i]
		state := h.serviceFromL3(core, la, sh, write)
		h.fillPrivate(core, la, state, prefetched, true, pfTag)
		// Re-resolve the directory entry: the private fills may have
		// evicted other lines but never move this one, so the slot index
		// is still valid.
		*sh |= 1 << uint(core)
		h.Stats.DemandL3Hits++
		h.obs.Add(h.obsL3Hit, 1)
		return res
	}

	// DRAM.
	h.Stats.DemandMem++
	h.Life[core].DemandMisses++
	h.obs.Add(h.obsMem, 1)
	state := uint8(stExclusive)
	if write {
		state = stModified
	}
	h.fillL3(core, la, state == stModified, false, 0)
	h.fillPrivate(core, la, state, false, true, 0)
	return Result{Lat: h.cfg.L3Lat, Level: LvlMem}
}

// lifeTimely attributes the first demand use of a prefetched-unused line
// to its issuing core (the packed per-line tag), splitting out fills that
// were serviced by DRAM — the ones that converted a would-be miss.
func (h *Hierarchy) lifeTimely(tag uint8) {
	if c := int(tag & pfCoreMask); c < len(h.Life) {
		h.Life[c].Timely++
		if tag&pfMemBit != 0 {
			h.Life[c].TimelyMem++
		}
	}
	h.obs.Add(h.obsPFTimely, 1)
}

// serviceFromL3 handles coherence when core reads/writes a line present in
// L3: downgrades or invalidates other cores' private copies as needed and
// returns the state the requester's private copies should take.
//
// This loop, upgrade and evictL3 probe each core's L2 first and skip its
// L1 when the L2 misses: every L1 fill follows an L2 fill or hit, an L2
// victim takes its L1 copy with it, and every coherence invalidation
// drops both, so a core's L1 lines are always a subset of its L2 lines.
// The writebacks and invalidations counted are those of the levels that
// actually held the line.
func (h *Hierarchy) serviceFromL3(core int, la uint64, sh *uint64, write bool) uint8 {
	others := *sh &^ (1 << uint(core))
	if write {
		for c := 0; c < h.cfg.Cores; c++ {
			if others&(1<<uint(c)) == 0 {
				continue
			}
			if i := h.l2[c].findIdx(la); i >= 0 {
				if st, ok := h.l1[c].invalidate(la); ok && st == stModified {
					h.Stats.Writebacks++
					h.obs.Add(h.obsWriteBk, 1)
				}
				if h.l2[c].invalidateIdx(i) == stModified {
					h.Stats.Writebacks++
					h.obs.Add(h.obsWriteBk, 1)
				}
			}
			h.Stats.Invalidations++
		}
		*sh = 1 << uint(core)
		return stModified
	}
	if others == 0 {
		return stExclusive
	}
	// Downgrade any modified owner to shared.
	for c := 0; c < h.cfg.Cores; c++ {
		if others&(1<<uint(c)) == 0 {
			continue
		}
		i := h.l2[c].findIdx(la)
		if i < 0 {
			continue
		}
		if h.l1[c].downgrade(la) {
			h.Stats.Writebacks++
			h.obs.Add(h.obsWriteBk, 1)
		}
		if h.l2[c].downgradeIdx(i) {
			h.Stats.Writebacks++
			h.obs.Add(h.obsWriteBk, 1)
		}
	}
	return stShared
}

// upgrade acquires write permission for a line core already holds.
func (h *Hierarchy) upgrade(core int, la uint64) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		i := h.l2[c].findIdx(la)
		if i < 0 {
			continue
		}
		if _, ok := h.l1[c].invalidate(la); ok {
			h.Stats.Invalidations++
		}
		h.l2[c].invalidateIdx(i)
		h.Stats.Invalidations++
	}
	h.l1[core].setModified(la)
	h.l2[core].setModified(la)
	if i := h.l3.findIdx(la); i >= 0 {
		h.l3.sharers[i] = 1 << uint(core)
	}
}

// markUsed propagates the demanded bit down so Fig. 15 counts each
// prefetched line once.
func (h *Hierarchy) markUsed(core int, la uint64) {
	h.l1[core].markUsed(la)
	h.l2[core].markUsed(la)
	h.l3.markUsed(la)
}

func (h *Hierarchy) fillPrivate(core int, la uint64, state uint8, prefetched, used bool, pfTag uint8) {
	h.fillL2(core, la, state, prefetched, used, pfTag)
	h.fillL1(core, la, state, prefetched, used, pfTag)
}

func (h *Hierarchy) fillL1(core int, la uint64, state uint8, prefetched, used bool, pfTag uint8) {
	b := h.l1[core]
	i, hit := b.findOrVictim(la)
	if hit {
		b.touchIdx(i)
		return
	}
	// A dirty L1 victim falls back to L2/L3 silently (inclusive hierarchy:
	// the outer levels still hold the line and the directory bit).
	b.lines[i] = line{state: state, prefetched: prefetched, used: used, pfTag: pfTag}
	b.setTag(i, la+1)
	b.touchIdx(i)
}

func (h *Hierarchy) fillL2(core int, la uint64, state uint8, prefetched, used bool, pfTag uint8) {
	b := h.l2[core]
	i, hit := b.findOrVictim(la)
	if hit {
		b.touchIdx(i)
		return
	}
	if b.tags[i] != 0 {
		victimAddr := b.tags[i] - 1
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
				// Inclusion should make this unreachable; account the
				// writeback directly rather than lose it.
				h.Stats.Writebacks++
				h.obs.Add(h.obsWriteBk, 1)
			}
		}
	}
	b.lines[i] = line{state: state, prefetched: prefetched, used: used, pfTag: pfTag}
	b.setTag(i, la+1)
	b.touchIdx(i)
}

func (h *Hierarchy) fillL3(core int, la uint64, modified, prefetched bool, pfTag uint8) {
	b := h.l3
	i, hit := b.findOrVictim(la)
	if hit {
		b.touchIdx(i)
		b.sharers[i] |= 1 << uint(core)
		return
	}
	if b.tags[i] != 0 {
		h.evictL3(b.tags[i]-1, i)
	}
	st := uint8(stExclusive)
	if modified {
		st = stModified
	}
	b.lines[i] = line{state: st, prefetched: prefetched, pfTag: pfTag}
	b.setTag(i, la+1)
	b.sharers[i] = 1 << uint(core)
	b.touchIdx(i)
}

// evictL3 back-invalidates every private copy (inclusive hierarchy) and
// accounts writebacks and unused-prefetch evictions. i is the victim's
// global slot index in the L3 bank.
func (h *Hierarchy) evictL3(victimAddr uint64, i int) {
	ln := &h.l3.lines[i]
	dirty := ln.state == stModified
	for c := 0; c < h.cfg.Cores; c++ {
		j := h.l2[c].findIdx(victimAddr)
		if j < 0 {
			continue
		}
		if st, ok := h.l1[c].invalidate(victimAddr); ok && st == stModified {
			dirty = true
		}
		if h.l2[c].invalidateIdx(j) == stModified {
			dirty = true
		}
	}
	if dirty {
		h.Stats.Writebacks++
		h.obs.Add(h.obsWriteBk, 1)
	}
	if ln.prefetched && !ln.used {
		h.Stats.PrefetchEvicted++
		if c := int(ln.pfTag & pfCoreMask); c < len(h.Life) {
			h.Life[c].EvictedUnused++
		}
		h.obs.Add(h.obsPFEvicted, 1)
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
	h.obs.Add(h.obsPFFill, 1)
	pfTag := uint8(core) & pfCoreMask
	if fromLevel == LvlMem {
		pfTag |= pfMemBit
	}
	if core < len(h.Life) {
		h.Life[core].Fills++
		if fromLevel == LvlMem {
			h.Life[core].FillsMem++
		}
	}
	if fromLevel == LvlMem {
		h.fillL3(core, la, false, true, pfTag)
	} else if i := h.l3.findIdx(la); i >= 0 {
		h.l3.sharers[i] |= 1 << uint(core)
		h.l3.touchIdx(i)
	}
	h.fillL2(core, la, stShared, true, false, pfTag)
	if !l2Only {
		h.fillL1(core, la, stShared, true, false, pfTag)
	}
}
