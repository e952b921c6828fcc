package cache

import "testing"

// tinyConfig geometry, as line-address strides in bytes: lines 256 B
// apart share an L1 set, 512 B apart an L2 set, 1024 B apart an L3 set.
const (
	l1SetStride = 4 * 64
	l2SetStride = 8 * 64
	l3SetStride = 16 * 64
)

// copyAt reports whether core holds addr's line in its L1 and its L2,
// and the state of each copy held.
func copyAt(h *Hierarchy, core int, addr uint64) (in1, in2 bool, st1, st2 uint8) {
	la := h.LineAddr(addr)
	if i := h.l1[core].findIdx(la); i >= 0 {
		in1, st1 = true, h.l1[core].lines[i].state
	}
	if i := h.l2[core].findIdx(la); i >= 0 {
		in2, st2 = true, h.l2[core].lines[i].state
	}
	return
}

// dirtyL2Only leaves core holding addr Modified in its L2 but not in its
// L1: it reads and writes the line, then evicts it from the L1 with two
// reads to the same L1 set, one of which shares its L2 set (2 ways). The
// L3 copy stays clean.
func dirtyL2Only(t *testing.T, h *Hierarchy, core int, addr uint64) {
	t.Helper()
	h.Access(core, addr, false)
	h.Access(core, addr, true)
	h.Access(core, addr+l1SetStride, false)
	h.Access(core, addr+l2SetStride, false)
	if in1, in2, _, st2 := copyAt(h, core, addr); in1 || !in2 || st2 != stModified {
		t.Fatalf("setup: core %d L1=%v L2=%v (state %d), want a Modified L2-only copy", core, in1, in2, st2)
	}
}

// dropPrivate evicts addr from core's L2 (and so its L1) with two reads
// to the same L2 set, leaving the L3 copy and core's stale directory bit.
func dropPrivate(t *testing.T, h *Hierarchy, core int, addr uint64) {
	t.Helper()
	h.Access(core, addr+l2SetStride, false)
	h.Access(core, addr+2*l2SetStride, false)
	if in1, in2, _, _ := copyAt(h, core, addr); in1 || in2 || h.Probe(core, addr) != LvlL3 {
		t.Fatalf("setup: core %d still holds the line privately (L1=%v L2=%v)", core, in1, in2)
	}
}

func wantCounts(t *testing.T, h *Hierarchy, writebacks, invalidations uint64) {
	t.Helper()
	if h.Stats.Writebacks != writebacks || h.Stats.Invalidations != invalidations {
		t.Fatalf("Writebacks/Invalidations = %d/%d, want %d/%d",
			h.Stats.Writebacks, h.Stats.Invalidations, writebacks, invalidations)
	}
}

// An L3 victim is back-invalidated from every core's L1 and L2, and one
// writeback is counted if any copy was dirty, even with the L3 copy clean.
func TestEvictL3BackInvalidatesDirtyPrivateCopies(t *testing.T) {
	h := mustNew(t, tinyConfig(3))
	evict := func(addr uint64) {
		t.Helper()
		// Core 1 fills the other three L3 ways, then the fourth fill
		// evicts addr, the set's LRU line.
		for k := uint64(1); k <= 4; k++ {
			h.Access(1, addr+k*l3SetStride, false)
		}
		for c := 0; c < 3; c++ {
			if in1, in2, _, _ := copyAt(h, c, addr); in1 || in2 {
				t.Fatalf("core %d still holds %#x after its L3 eviction (L1=%v L2=%v)", c, addr, in1, in2)
			}
		}
		if h.Probe(0, addr) != LvlNone {
			t.Fatalf("%#x still in L3", addr)
		}
	}

	const a, b, c = 0x10000, 0x10040, 0x10080
	// Dirty in core 0's L1 and L2, clean in L3.
	h.Access(0, a, false)
	h.Access(0, a, true)
	evict(a)
	wantCounts(t, h, 1, 0)
	// Dirty in core 0's L2 only.
	dirtyL2Only(t, h, 0, b)
	evict(b)
	wantCounts(t, h, 2, 0)
	// Clean copies on cores 0 and 2: no writeback.
	h.Access(0, c, false)
	h.Access(2, c, false)
	evict(c)
	wantCounts(t, h, 2, 0)
}

// A read serviced from L3 downgrades every other sharer's copies, with
// one writeback per Modified level, and skips a sharer whose directory
// bit is stale.
func TestServiceFromL3ReadDowngradesDirtyLevels(t *testing.T) {
	h := mustNew(t, tinyConfig(3))
	const a, b, c = 0x20000, 0x20040, 0x20080
	// Modified in core 0's L1 and L2: two writebacks.
	h.Access(0, a, false)
	h.Access(0, a, true)
	if r := h.Access(1, a, false); r.Level != LvlL3 {
		t.Fatalf("remote read at %v, want L3", r.Level)
	}
	wantCounts(t, h, 2, 0)
	if in1, in2, st1, st2 := copyAt(h, 0, a); !in1 || !in2 || st1 != stShared || st2 != stShared {
		t.Fatalf("core 0 after downgrade: L1=%v(%d) L2=%v(%d), want both Shared", in1, st1, in2, st2)
	}
	// Modified in core 0's L2 only: one writeback.
	dirtyL2Only(t, h, 0, b)
	h.Access(1, b, false)
	wantCounts(t, h, 3, 0)
	if _, _, _, st2 := copyAt(h, 0, b); st2 != stShared {
		t.Fatalf("core 0's L2 copy of b in state %d, want Shared", st2)
	}
	// Core 2's directory bit outlives its copy: nothing to downgrade, and
	// the reader still takes the line Shared.
	h.Access(2, c, false)
	dropPrivate(t, h, 2, c)
	h.Access(0, c, false)
	wantCounts(t, h, 3, 0)
	if _, _, st1, _ := copyAt(h, 0, c); st1 != stShared {
		t.Fatalf("reader's copy of c in state %d, want Shared", st1)
	}
}

// A write serviced from L3 invalidates every other sharer: one
// invalidation per sharer core, whether or not it still holds a copy,
// and one writeback per Modified level it held.
func TestServiceFromL3WriteInvalidatesSharers(t *testing.T) {
	h := mustNew(t, tinyConfig(3))
	const a, b, c = 0x30000, 0x30040, 0x30080
	// Cores 0 and 2 share a; core 0's write upgrades, invalidating core
	// 2's L1 and L2 copies.
	h.Access(0, a, false)
	h.Access(2, a, false)
	h.Access(0, a, true)
	wantCounts(t, h, 0, 2)
	// Core 1's write finds a in L3 and takes it from core 0, Modified in
	// both levels.
	if r := h.Access(1, a, true); r.Level != LvlL3 {
		t.Fatalf("remote write at %v, want L3", r.Level)
	}
	wantCounts(t, h, 2, 3)
	// b is shared clean by core 0 and a stale directory bit of core 2:
	// two invalidations, no writeback.
	h.Access(2, b, false)
	dropPrivate(t, h, 2, b)
	h.Access(0, b, false)
	h.Access(1, b, true)
	wantCounts(t, h, 2, 5)
	// c is Modified in core 0's L2 only: one invalidation, one writeback.
	dirtyL2Only(t, h, 0, c)
	h.Access(1, c, true)
	wantCounts(t, h, 3, 6)
	for _, addr := range []uint64{a, b, c} {
		for core := 0; core < 3; core += 2 {
			if in1, in2, _, _ := copyAt(h, core, addr); in1 || in2 {
				t.Fatalf("core %d still holds %#x after a remote write", core, addr)
			}
		}
	}
}

// A write hit on a Shared copy invalidates every other core's copies,
// counting each level that held one.
func TestUpgradeInvalidatesOtherCopiesPerLevel(t *testing.T) {
	h := mustNew(t, tinyConfig(3))
	const a = 0x40000
	for core := 0; core < 3; core++ {
		h.Access(core, a, false)
	}
	// Drop core 2's L1 copy only: two reads to its L1 set, one of which
	// shares the L2 set (2 ways, so a stays).
	h.Access(2, a+l1SetStride, false)
	h.Access(2, a+l2SetStride, false)
	if in1, in2, _, _ := copyAt(h, 2, a); in1 || !in2 {
		t.Fatalf("setup: core 2 L1=%v L2=%v, want an L2-only copy", in1, in2)
	}
	h.Access(0, a, true)
	// Core 1: L1 and L2; core 2: L2 only.
	wantCounts(t, h, 0, 3)
	if in1, in2, st1, st2 := copyAt(h, 0, a); !in1 || !in2 || st1 != stModified || st2 != stModified {
		t.Fatalf("writer: L1=%v(%d) L2=%v(%d), want both Modified", in1, st1, in2, st2)
	}
	for core := 1; core < 3; core++ {
		if in1, in2, _, _ := copyAt(h, core, a); in1 || in2 {
			t.Fatalf("core %d still holds the line after the upgrade", core)
		}
	}
}
