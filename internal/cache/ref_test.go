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
