package cache

// refBank is the bank that the fingerprinted one replaced: a counting
// presence filter over resident line addresses in front of a linear tag
// scan. It is retained verbatim as the oracle of the differential tests
// in bank_test.go, except that the //hot:inline directives are dropped,
// only the methods those tests drive are kept, and its line type (which
// still carries the lru tick the new bank keeps in an array of its own)
// is renamed refLine. The fingerprinted bank must give the same findIdx,
// findOrVictim and victim answers, way for way, and hold the same tags
// after every operation. refBank's slot index is set*assoc + way, while
// the fingerprinted bank numbers its slots by plane (see bank), so the
// tests compare ways within a set.
type refBank struct {
	// tags[i] is slot i's full line address + 1 (0 = invalid), kept
	// separate from lines so findIdx/findOrVictim scan a dense array.
	tags    []uint64
	lines   []refLine
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

// refLine is line as it was when refBank used it, with the lru tick
// that the fingerprinted bank keeps in its own array.
type refLine struct {
	state      uint8
	prefetched bool
	used       bool // demanded at least once since fill
	// pfTag attributes a prefetched line to its issuing core (pfCoreMask)
	// and records DRAM service (pfMemBit); meaningful only while
	// prefetched && !used.
	pfTag uint8
	lru   uint32
}

// filterFib is the 64-bit Fibonacci hashing multiplier; the shifted
// product spreads line addresses that alias in their low bits.
const filterFib = 0x9E3779B97F4A7C15

func (b *refBank) fhash(lineAddr uint64) uint64 {
	return (lineAddr * filterFib) >> 32 & b.fmask
}

// setTag points slot i at a new tag (0 = invalidate), keeping the
// presence filter in step. Every tag write goes through here.
func (b *refBank) setTag(i int, tag uint64) {
	if old := b.tags[i]; old != 0 {
		b.filter[b.fhash(old-1)]--
	}
	if tag != 0 {
		b.filter[b.fhash(tag-1)]++
	}
	b.tags[i] = tag
}

// newRefBank assumes Config.Validate already approved the geometry
// (power of two set count).
func newRefBank(sizeBytes, assoc, lineSize int, directory bool) *refBank {
	numSets := setCount(sizeBytes, assoc, lineSize)
	fsize := 4
	for fsize < 4*numSets*assoc {
		fsize *= 2
	}
	b := &refBank{
		tags:    make([]uint64, numSets*assoc),
		lines:   make([]refLine, numSets*assoc),
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
func (b *refBank) findIdx(lineAddr uint64) int {
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
func (b *refBank) findOrVictim(lineAddr uint64) (int, bool) {
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

func (b *refBank) touchIdx(i int) {
	b.tick++
	b.lines[i].lru = b.tick
}

// invalidateIdx drops the line in slot i, returning its
// pre-invalidation state.
func (b *refBank) invalidateIdx(i int) uint8 {
	st := b.lines[i].state
	b.lines[i] = refLine{}
	b.setTag(i, 0)
	return st
}

// refHierarchy is Hierarchy as it was before the coherence walks used
// owner bits and orphan tracking: an L3 read hit probes every other
// sharer, and an L3 eviction or a write upgrade probes every core. It is
// retained verbatim as the oracle of the differential tests in
// hierarchy_test.go, except that the observability hooks, Attach, Config
// and the //hot: directives are dropped and the constructor is renamed.
// It runs on the current bank, which TestBankMatchesRef checks against
// refBank. Hierarchy must return the same results and leave the same
// stats, tags, line states, lru ticks and sharer bits after every
// operation.
type refHierarchy struct {
	cfg       Config
	lineShift uint
	l1, l2    []*bank
	l3        *bank
	Stats     Stats
	// Life is the per-core prefetch-lifecycle ledger (see LifeStats for
	// which side of an event each index refers to).
	Life []LifeStats
	// OnL3Evict, when set, is called with the evicted line address
	// (used by DROPLET-style prefetchers that watch DRAM traffic). It
	// runs in the middle of a fill and must not call back into the
	// hierarchy.
	OnL3Evict func(lineAddr uint64)
}

// newRefHierarchy builds a hierarchy from cfg, rejecting geometries
// Validate refuses.
func newRefHierarchy(cfg Config) (*refHierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &refHierarchy{cfg: cfg, Life: make([]LifeStats, cfg.Cores)}
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

// LineAddr maps a byte address to its line address.
func (h *refHierarchy) LineAddr(addr uint64) uint64 { return addr >> h.lineShift }

// Access performs a demand read (write=false) or write (write=true) by
// core to the line containing addr, updating states and stats. The line is
// filled on a miss (the caller accounts DRAM latency separately).
//
// This is the simulator's hottest function: every path below runs without
// heap allocation (BenchmarkHierarchyAccess pins 0 allocs/op).
func (h *refHierarchy) Access(core int, addr uint64, write bool) Result {
	la := h.LineAddr(addr)
	h.Stats.DemandAccesses++

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
			h.l2[core].markUsed(la)
			h.l3.markUsed(la)
		}
		ln.used = true
		h.Stats.DemandL1Hits++
		if write && ln.state != stModified {
			h.upgrade(core, la, i, h.l2[core].findIdx(la))
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
			h.l3.markUsed(la)
		}
		ln.used = true
		st := ln.state
		j := l1.victim(la)
		h.fillL1(core, j, la, line{state: st, prefetched: ln.prefetched, used: true, pfTag: ln.pfTag})
		h.Stats.DemandL2Hits++
		if write && st != stModified {
			h.upgrade(core, la, j, i)
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
		h.fillPrivate(core, la, line{state: state, prefetched: prefetched, used: true, pfTag: pfTag})
		// Re-resolve the directory entry: the private fills may have
		// evicted other lines but never move this one, so the slot index
		// is still valid.
		*sh |= 1 << uint(core)
		h.Stats.DemandL3Hits++
		return res
	}

	// DRAM.
	h.Stats.DemandMem++
	h.Life[core].DemandMisses++
	state := uint8(stExclusive)
	if write {
		state = stModified
	}
	h.fillL3(core, h.l3.victim(la), la, line{state: state})
	h.fillPrivate(core, la, line{state: state, used: true})
	return Result{Lat: h.cfg.L3Lat, Level: LvlMem}
}

// lifeTimely attributes the first demand use of a prefetched-unused line
// to its issuing core (the packed per-line tag), splitting out fills that
// were serviced by DRAM — the ones that converted a would-be miss.
func (h *refHierarchy) lifeTimely(tag uint8) {
	if c := int(tag & pfCoreMask); c < len(h.Life) {
		h.Life[c].Timely++
		if tag&pfMemBit != 0 {
			h.Life[c].TimelyMem++
		}
	}
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
func (h *refHierarchy) serviceFromL3(core int, la uint64, sh *uint64, write bool) uint8 {
	others := *sh &^ (1 << uint(core))
	if write {
		for c := 0; c < h.cfg.Cores; c++ {
			if others&(1<<uint(c)) == 0 {
				continue
			}
			if i := h.l2[c].findIdx(la); i >= 0 {
				if st, ok := h.l1[c].invalidate(la); ok && st == stModified {
					h.Stats.Writebacks++
				}
				if h.l2[c].invalidateIdx(i) == stModified {
					h.Stats.Writebacks++
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
		}
		if h.l2[c].downgradeIdx(i) {
			h.Stats.Writebacks++
		}
	}
	return stShared
}

// upgrade acquires write permission for a line core already holds, in
// slot i1 of its L1 and slot i2 (-1 if absent) of its L2.
func (h *refHierarchy) upgrade(core int, la uint64, i1, i2 int) {
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
	h.l1[core].lines[i1].state = stModified
	if i2 >= 0 {
		h.l2[core].lines[i2].state = stModified
	}
	if i := h.l3.findIdx(la); i >= 0 {
		h.l3.sharers[i] = 1 << uint(core)
	}
}

// markUsed propagates the demanded bit down so Fig. 15 counts each
// prefetched line once.
func (h *refHierarchy) markUsed(core int, la uint64) {
	h.l1[core].markUsed(la)
	h.l2[core].markUsed(la)
	h.l3.markUsed(la)
}

// fillPrivate installs la, which missed core's L1 and L2, in both.
func (h *refHierarchy) fillPrivate(core int, la uint64, ln line) {
	h.fillL2(core, h.l2[core].victim(la), la, ln)
	h.fillL1(core, h.l1[core].victim(la), la, ln)
}

// fillL1, fillL2 and fillL3 install la as ln in slot i of their level, a
// victim slot that victim or findOrVictim chose, evicting what it holds.
func (h *refHierarchy) fillL1(core, i int, la uint64, ln line) {
	// A dirty L1 victim falls back to L2/L3 silently (inclusive hierarchy:
	// the outer levels still hold the line and the directory bit).
	h.l1[core].fill(i, la, ln)
}

func (h *refHierarchy) fillL2(core, i int, la uint64, ln line) {
	b := h.l2[core]
	if b.lines[i].state != stInvalid {
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
				// Inclusion should make this unreachable; account the
				// writeback directly rather than lose it.
				h.Stats.Writebacks++
			}
		}
	}
	b.fill(i, la, ln)
}

// fillL3 takes ln's state as Modified or else Exclusive: the L3 copy is
// never installed Shared.
func (h *refHierarchy) fillL3(core, i int, la uint64, ln line) {
	b := h.l3
	if b.lines[i].state != stInvalid {
		h.evictL3(b.tags[i], i)
	}
	if ln.state != stModified {
		ln.state = stExclusive
	}
	b.fill(i, la, ln)
	b.sharers[i] = 1 << uint(core)
}

// evictL3 back-invalidates every private copy (inclusive hierarchy) and
// accounts writebacks and unused-prefetch evictions. i is the victim's
// global slot index in the L3 bank.
func (h *refHierarchy) evictL3(victimAddr uint64, i int) {
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
	}
	if ln.prefetched && !ln.used {
		h.Stats.PrefetchEvicted++
		if c := int(ln.pfTag & pfCoreMask); c < len(h.Life) {
			h.Life[c].EvictedUnused++
		}
	}
	if h.OnL3Evict != nil {
		h.OnL3Evict(victimAddr)
	}
}

// TouchUsed marks addr's line as demanded. The engine calls this when a
// demand access merged with the line while its prefetch was still in
// flight, so the prefetch still counts as useful (it hid partial latency).
func (h *refHierarchy) TouchUsed(core int, addr uint64) {
	h.markUsed(core, h.LineAddr(addr))
}

// Probe reports the level at which addr currently resides for core, without
// updating any state. Prefetchers use it to skip redundant requests.
func (h *refHierarchy) Probe(core int, addr uint64) Level {
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
func (h *refHierarchy) FillPrefetch(core int, addr uint64, fromLevel Level) {
	h.fillPrefetchAt(core, addr, fromLevel, false)
}

// FillPrefetchL2 is FillPrefetch stopping at the L2.
func (h *refHierarchy) FillPrefetchL2(core int, addr uint64, fromLevel Level) {
	h.fillPrefetchAt(core, addr, fromLevel, true)
}

func (h *refHierarchy) fillPrefetchAt(core int, addr uint64, fromLevel Level, l2Only bool) {
	la := h.LineAddr(addr)
	h.Stats.PrefetchFills++
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
	// The line may have become resident at any level since the prefetch
	// was issued, so each level is searched before it is filled.
	if i := h.l3.findIdx(la); i >= 0 {
		h.l3.sharers[i] |= 1 << uint(core)
		h.l3.touchIdx(i)
	} else if fromLevel == LvlMem {
		h.fillL3(core, h.l3.victim(la), la, line{prefetched: true, pfTag: pfTag})
	}
	ln := line{state: stShared, prefetched: true, pfTag: pfTag}
	if i, hit := h.l2[core].findOrVictim(la); hit {
		h.l2[core].touchIdx(i)
	} else {
		h.fillL2(core, i, la, ln)
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
