// Package tlb models a per-core data TLB. Prodigy issues prefetches in the
// virtual address space and translates through the same D-TLB as the core
// (Section VI-E notes the added contention), so both demand loads and
// prefetch requests consult it.
package tlb

import "fmt"

// Config parameterizes a TLB.
type Config struct {
	Entries  int // total entries (set-associative)
	Assoc    int
	PageBits uint  // log2 page size (12 for 4 KB)
	WalkLat  int64 // page-walk penalty in cycles
}

// Default returns a 64-entry 4-way 4 KB-page TLB with a 20-cycle walk.
func Default() Config {
	return Config{Entries: 64, Assoc: 4, PageBits: 12, WalkLat: 20}
}

// maxEntries bounds a TLB's size (16 MiB of entries; real TLBs hold a
// few thousand), so an absurd size is refused instead of failing an
// allocation.
const maxEntries = 1 << 20

// Validate reports the first problem with the geometry, mirroring
// cache.Config.Validate: a bad sweep point must surface as a run error
// from sim.NewMachine, not a panic (or, worse, a silently clamped
// single-set TLB when Assoc exceeds Entries).
func (cfg Config) Validate() error {
	if cfg.Entries <= 0 || cfg.Assoc <= 0 {
		return fmt.Errorf("tlb: entries (%d) and assoc (%d) must be positive", cfg.Entries, cfg.Assoc)
	}
	if cfg.Entries > maxEntries {
		return fmt.Errorf("tlb: %d entries, want at most %d", cfg.Entries, maxEntries)
	}
	if cfg.Assoc > cfg.Entries {
		return fmt.Errorf("tlb: assoc %d exceeds entries %d", cfg.Assoc, cfg.Entries)
	}
	if cfg.Entries%cfg.Assoc != 0 {
		return fmt.Errorf("tlb: entries %d not divisible by assoc %d", cfg.Entries, cfg.Assoc)
	}
	numSets := cfg.Entries / cfg.Assoc
	if numSets&(numSets-1) != 0 {
		return fmt.Errorf("tlb: set count %d is not a power of two", numSets)
	}
	if cfg.PageBits == 0 {
		return fmt.Errorf("tlb: page bits must be positive")
	}
	if cfg.WalkLat < 0 {
		return fmt.Errorf("tlb: negative walk latency %d", cfg.WalkLat)
	}
	return nil
}

// Stats counts TLB events.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

type entry struct {
	vpn uint64 // virtual page number + 1 (0 = invalid)
	// lru is a 64-bit access timestamp: a uint32 would wrap after 2^32
	// translations, inverting the ordering so every miss evicts the MRU
	// entry instead of the LRU one for the next 2^32 accesses.
	lru uint64
}

// TLB is one core's translation lookaside buffer.
type TLB struct {
	cfg     Config
	sets    []entry
	assoc   int
	setMask uint64
	tick    uint64
	// last is the slot of the most recent hit or install: consecutive
	// accesses to one page (common when streaming through an array) skip
	// the set scan. Validated by tag compare, so staleness is harmless.
	last  int
	Stats Stats
}

// New builds a TLB. An invalid geometry is reported as an error
// (cfg.Validate), matching the cache.New / sim.NewMachine convention.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.Entries / cfg.Assoc
	return &TLB{
		cfg:     cfg,
		sets:    make([]entry, numSets*cfg.Assoc),
		assoc:   cfg.Assoc,
		setMask: uint64(numSets - 1),
	}, nil
}

// Translate looks up the page containing addr and returns the added
// latency (0 on hit, WalkLat on miss, after which the entry is installed).
//
//hot:path
func (t *TLB) Translate(addr uint64) int64 {
	vpn := addr >> t.cfg.PageBits
	t.Stats.Accesses++
	t.tick++
	// Same-page fast path: an entry only ever lives in its home set, so a
	// tag match at the remembered slot is always a genuine hit.
	if e := &t.sets[t.last]; e.vpn == vpn+1 {
		e.lru = t.tick
		return 0
	}
	base := int(vpn&t.setMask) * t.assoc
	set := t.sets[base : base+t.assoc]
	for i := range set {
		if set[i].vpn == vpn+1 {
			set[i].lru = t.tick
			t.last = base + i
			return 0
		}
	}
	t.Stats.Misses++
	// Install over LRU.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	//hot:noescape
	set[victim] = entry{vpn: vpn + 1, lru: t.tick}
	t.last = base + victim
	return t.cfg.WalkLat
}

// MissRate returns misses/accesses.
func (t *TLB) MissRate() float64 {
	if t.Stats.Accesses == 0 {
		return 0
	}
	return float64(t.Stats.Misses) / float64(t.Stats.Accesses)
}
