package cache

import (
	"testing"
	"testing/quick"
)

func tinyConfig(cores int) Config {
	return Config{
		Cores:    cores,
		LineSize: 64,
		L1Size:   512, L1Assoc: 2, // 4 sets
		L2Size: 1024, L2Assoc: 2, // 8 sets
		L3Size: 4096, L3Assoc: 4, // 16 sets
		L1Lat: 2, L2Lat: 6, L3Lat: 30,
	}
}

func mustNew(t testing.TB, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig(1).Validate(); err != nil {
		t.Fatalf("tiny config should validate, got %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LineSize = 48 },
		func(c *Config) { c.L1Size = 768 }, // 6 sets: not a power of two
		func(c *Config) { c.L2Assoc = 0 },
		func(c *Config) { c.L3Size = -1 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad config %+v", i, cfg)
		}
		if h, err := New(cfg); err == nil || h != nil {
			t.Errorf("case %d: New accepted bad config", i)
		}
	}
}

// Regression test for the writeback undercount: a Modified line evicted
// from the private levels must hand its dirtiness to the inclusive L3
// copy, so the eventual L3 eviction still generates the writeback.
func TestDirtyL2VictimPropagatesToL3Writeback(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	const base = 0x10000
	// Fill on a read (L3 copy stays Exclusive), then upgrade to Modified
	// in the private levels only.
	h.Access(0, base, false)
	h.Access(0, base, true)
	// Evict the dirty line from L2 (2 ways, 8 sets: stride 512 B stays in
	// L2 set 0) with two clean reads. None of this evicts it from L3.
	h.Access(0, base+512, false)
	h.Access(0, base+1024, false)
	if got := h.Probe(0, base); got != LvlL3 {
		t.Fatalf("dirty line should have fallen back to L3, at %v", got)
	}
	if h.Stats.Writebacks != 0 {
		t.Fatalf("Writebacks = %d before the L3 eviction, want 0", h.Stats.Writebacks)
	}
	// Now push it out of L3 (4 ways, 16 sets: stride 1024 B stays in L3
	// set 0). The victim is the dirty line; its eviction must write back.
	for i := uint64(2); i <= 4; i++ {
		h.Access(0, base+i*1024, false)
	}
	if h.Probe(0, base) != LvlNone {
		t.Fatal("dirty line should have been evicted from L3")
	}
	if h.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d after evicting a dirty line, want 1", h.Stats.Writebacks)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	r := h.Access(0, 0x1000, false)
	if r.Level != LvlMem {
		t.Fatalf("cold access level = %v, want MEM", r.Level)
	}
	r = h.Access(0, 0x1000, false)
	if r.Level != LvlL1 || r.Lat != 2 {
		t.Fatalf("second access = %+v, want L1 hit", r)
	}
	// Another word in the same line also hits.
	r = h.Access(0, 0x1000+32, false)
	if r.Level != LvlL1 {
		t.Fatalf("same-line access = %v, want L1", r.Level)
	}
}

func TestL1EvictionFallsBackToL2(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	// L1: 4 sets × 2 ways. Fill 3 lines mapping to set 0 (stride 4*64).
	stride := uint64(4 * 64)
	for i := uint64(0); i < 3; i++ {
		h.Access(0, 0x10000+i*stride, false)
	}
	// First line evicted from L1 but still in L2.
	r := h.Access(0, 0x10000, false)
	if r.Level != LvlL2 {
		t.Fatalf("level = %v, want L2", r.Level)
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	cfg := tinyConfig(1)
	h := mustNew(t, cfg)
	// Occupy one L3 set (4 ways) plus one more line in the same set,
	// forcing an L3 eviction; the victim must leave L1/L2 too.
	stride := uint64(16 * 64) // L3 has 16 sets
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = 0x40000 + uint64(i)*stride
		h.Access(0, addrs[i], false)
	}
	// addrs[0] was LRU in L3 and must be gone everywhere.
	if lvl := h.Probe(0, addrs[0]); lvl != LvlNone {
		t.Fatalf("evicted line still at %v", lvl)
	}
	if h.Access(0, addrs[0], false).Level != LvlMem {
		t.Fatal("re-access of back-invalidated line should go to DRAM")
	}
}

func TestCoherenceInvalidationOnWrite(t *testing.T) {
	h := mustNew(t, tinyConfig(2))
	h.Access(0, 0x2000, false)
	h.Access(1, 0x2000, false) // both cores share the line
	if h.Probe(1, 0x2000) != LvlL1 {
		t.Fatal("core1 should have the line")
	}
	h.Access(0, 0x2000, true) // core0 writes -> invalidate core1
	if lvl := h.Probe(1, 0x2000); lvl == LvlL1 || lvl == LvlL2 {
		t.Fatalf("core1 copy should be invalidated, still at %v", lvl)
	}
	if h.Stats.Invalidations == 0 {
		t.Error("invalidations not counted")
	}
	// Core1 re-reads: must find it in L3 (or DRAM), not private.
	r := h.Access(1, 0x2000, false)
	if r.Level != LvlL3 {
		t.Fatalf("core1 re-read level = %v, want L3", r.Level)
	}
}

func TestWriteThenRemoteReadDowngrades(t *testing.T) {
	h := mustNew(t, tinyConfig(2))
	h.Access(0, 0x3000, true) // core0 holds M
	r := h.Access(1, 0x3000, false)
	if r.Level != LvlL3 {
		t.Fatalf("remote read level = %v, want L3", r.Level)
	}
	if h.Stats.Writebacks == 0 {
		t.Error("downgrading an M line should count a writeback")
	}
	// Now both can read from their L1s.
	if h.Access(0, 0x3000, false).Level != LvlL1 {
		t.Error("core0 should still hit L1 after downgrade")
	}
}

func TestPrefetchFillAndUsefulness(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	h.FillPrefetch(0, 0x5000, LvlMem)
	if h.Stats.PrefetchFills != 1 {
		t.Fatal("prefetch fill not counted")
	}
	r := h.Access(0, 0x5000, false)
	if r.Level != LvlL1 {
		t.Fatalf("demand after prefetch level = %v, want L1", r.Level)
	}
	if r.PrefetchHit != LvlL1 {
		t.Fatalf("PrefetchHit = %v, want L1", r.PrefetchHit)
	}
	if h.Stats.PrefetchL1Hits != 1 {
		t.Error("L1 prefetch hit not counted")
	}
	// Second demand to the same line is a plain hit, not a prefetch hit.
	r = h.Access(0, 0x5000, false)
	if r.PrefetchHit != LvlNone {
		t.Error("prefetch hit double-counted")
	}
}

func TestPrefetchEvictedBeforeUse(t *testing.T) {
	cfg := tinyConfig(1)
	h := mustNew(t, cfg)
	stride := uint64(16 * 64)
	h.FillPrefetch(0, 0x50000, LvlMem)
	// Push it out of L3 with demand traffic to the same set.
	for i := uint64(1); i <= 4; i++ {
		h.Access(0, 0x50000+i*stride, false)
	}
	if h.Stats.PrefetchEvicted != 1 {
		t.Fatalf("PrefetchEvicted = %d, want 1", h.Stats.PrefetchEvicted)
	}
}

func TestPrefetchHitAtL2AfterL1Eviction(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	h.FillPrefetch(0, 0x60000, LvlMem)
	// Evict from L1 set (2 ways) with demand lines in the same L1 set but
	// different L2/L3 sets.
	l1stride := uint64(4 * 64)
	h.Access(0, 0x60000+l1stride, false)
	h.Access(0, 0x60000+2*l1stride, false)
	r := h.Access(0, 0x60000, false)
	if r.Level != LvlL2 {
		t.Fatalf("level = %v, want L2", r.Level)
	}
	if r.PrefetchHit != LvlL2 {
		t.Fatalf("PrefetchHit = %v, want L2", r.PrefetchHit)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	if h.Probe(0, 0x7000) != LvlNone {
		t.Fatal("empty probe should be none")
	}
	before := h.Stats
	h.Probe(0, 0x7000)
	if h.Stats != before {
		t.Error("probe changed stats")
	}
	if h.Access(0, 0x7000, false).Level != LvlMem {
		t.Error("probe must not install lines")
	}
}

func TestOnL3EvictCallback(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	var evicted []uint64
	h.OnL3Evict = func(la uint64) { evicted = append(evicted, la) }
	stride := uint64(16 * 64)
	for i := uint64(0); i <= 4; i++ {
		h.Access(0, 0x80000+i*stride, false)
	}
	if len(evicted) != 1 || evicted[0] != h.LineAddr(0x80000) {
		t.Fatalf("evictions = %v", evicted)
	}
}

func TestScaledDefaultShape(t *testing.T) {
	cfg := ScaledDefault(8)
	h := mustNew(t, cfg)
	if h.cfg.L3Size != 128<<10 {
		t.Fatal("unexpected L3 size")
	}
	// Must be able to access without panicking across cores.
	for c := 0; c < 8; c++ {
		h.Access(c, uint64(c)*4096, false)
	}
}

// Property: after any access sequence, every L1-resident line is also
// L2-resident (L1 ⊆ L2) and every private line is L3-resident (inclusion).
// With prefetch fills and writes interleaved on three cores, L1 ⊆ L2 still
// holds after every operation: serviceFromL3, upgrade and evictL3 rely on
// it to skip a core's L1 when its L2 misses. (Prefetch fills can break
// L2 ⊆ L3, so the mixed run checks only the first.)
func TestQuickInclusion(t *testing.T) {
	f := func(ops []uint16) bool {
		h := mustNew(t, tinyConfig(2))
		var touched []uint64
		for i, op := range ops {
			addr := uint64(op%256) * 64
			core := i % 2
			h.Access(core, addr, op%7 == 0)
			touched = append(touched, addr)
		}
		for _, addr := range touched {
			la := h.LineAddr(addr)
			for c := 0; c < 2; c++ {
				inL1 := h.l1[c].lookup(la) >= 0
				inL2 := h.l2[c].lookup(la) >= 0
				inL3 := h.l3.lookup(la) >= 0
				if inL1 && !inL2 {
					return false
				}
				if (inL1 || inL2) && !inL3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	const cores = 3
	from := [...]Level{LvlL2, LvlL3, LvlMem}
	mixed := func(ops []uint32) bool {
		h := mustNew(t, tinyConfig(cores))
		for i, op := range ops {
			addr := uint64(op%256) * 64
			core := int(op>>8) % cores
			switch lvl := from[(op>>12)%3]; (op >> 16) % 4 {
			case 0:
				h.Access(core, addr, false)
			case 1:
				h.Access(core, addr, true)
			case 2:
				h.FillPrefetch(core, addr, lvl)
			case 3:
				h.FillPrefetchL2(core, addr, lvl)
			}
			for c := 0; c < cores; c++ {
				l1 := h.l1[c]
				for j, la := range l1.tags {
					if l1.lines[j].state != stInvalid && h.l2[c].findIdx(la) < 0 {
						t.Logf("op %d (%#x): core %d holds line %#x in L1 but not L2", i, op, c, la)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(mixed, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: at most one core holds a line in M state at any time.
func TestQuickSingleWriter(t *testing.T) {
	f := func(ops []uint16) bool {
		const cores = 3
		h := mustNew(t, tinyConfig(cores))
		for i, op := range ops {
			addr := uint64(op%64) * 64
			h.Access(i%cores, addr, op%3 == 0)
			la := h.LineAddr(addr)
			writers := 0
			for c := 0; c < cores; c++ {
				if w := h.l1[c].lookup(la); w >= 0 && h.l1[c].way(la, w).state == stModified {
					writers++
				}
			}
			if writers > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{LvlNone: "none", LvlL1: "L1", LvlL2: "L2", LvlL3: "L3", LvlMem: "MEM"} {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
}
