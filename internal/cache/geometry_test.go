package cache

import (
	"testing"

	"prodigy/internal/tlb"
)

// FuzzCacheGeometry checks that cache.New and tlb.New refuse every
// configuration their Validate refuses, and never panic, on arbitrary
// field values: zero and negative sizes, associativity above the line
// count, set counts that are not powers of two, sizes near the int
// limits and wide sets. Configurations that validate are built and
// driven through a few accesses when they are small; allocating a large
// valid hierarchy would test the allocator, not the geometry checks, and
// Validate's bounds (maxLines, maxCores, tlb's maxEntries) keep New's
// allocation finite.
func FuzzCacheGeometry(f *testing.F) {
	f.Add(int64(2), int64(64), int64(512), int64(2), int64(1024), int64(2), int64(4096), int64(4), int64(64), int64(4), uint8(12))
	f.Fuzz(func(t *testing.T, cores, lineSize, l1Size, l1Assoc, l2Size, l2Assoc, l3Size, l3Assoc, tlbEntries, tlbAssoc int64, pageBits uint8) {
		cfg := Config{
			Cores: int(cores), LineSize: int(lineSize),
			L1Size: int(l1Size), L1Assoc: int(l1Assoc),
			L2Size: int(l2Size), L2Assoc: int(l2Assoc),
			L3Size: int(l3Size), L3Assoc: int(l3Assoc),
			L1Lat: 2, L2Lat: 6, L3Lat: 30,
		}
		if err := cfg.Validate(); err != nil {
			if h, err := New(cfg); err == nil || h != nil {
				t.Fatalf("New accepted %+v, which Validate refuses", cfg)
			}
		} else if small := 1 << 10; cfg.L1Size/cfg.LineSize <= small && cfg.L2Size/cfg.LineSize <= small && cfg.L3Size/cfg.LineSize <= small {
			h, err := New(cfg)
			if err != nil {
				t.Fatalf("New(%+v): %v", cfg, err)
			}
			line := uint64(cfg.LineSize)
			for i := uint64(0); i < 64; i++ {
				core := int(i) % cfg.Cores
				h.Access(core, i*line*7, i&3 == 0)
				h.FillPrefetch(core, i*line*13, LvlMem)
				h.Probe(core, i*line)
			}
		}

		tcfg := tlb.Config{Entries: int(tlbEntries), Assoc: int(tlbAssoc), PageBits: uint(pageBits), WalkLat: 20}
		if err := tcfg.Validate(); err != nil {
			if tb, err := tlb.New(tcfg); err == nil || tb != nil {
				t.Fatalf("tlb.New accepted %+v, which Validate refuses", tcfg)
			}
		} else if tcfg.Entries <= 1<<12 {
			tb, err := tlb.New(tcfg)
			if err != nil {
				t.Fatalf("tlb.New(%+v): %v", tcfg, err)
			}
			for i := uint64(0); i < 64; i++ {
				tb.Translate(i * 4093)
			}
		}
	})
}

// TestValidateRejectsAssocAboveLines: an associativity above a level's
// line count used to be clamped to a single set of assoc ways, so New
// allocated assoc slots whatever the size; at assoc 1<<60 that panicked
// in makeslice.
func TestValidateRejectsAssocAboveLines(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.L2Assoc = 1 << 60
	if h, err := New(cfg); err == nil || h != nil {
		t.Fatalf("New accepted L2 assoc %d over %d lines", cfg.L2Assoc, cfg.L2Size/cfg.LineSize)
	}
	cfg = tinyConfig(1)
	cfg.L1Assoc = cfg.L1Size/cfg.LineSize + 1
	if err := cfg.Validate(); err == nil {
		t.Fatalf("Validate accepted L1 assoc %d over %d lines", cfg.L1Assoc, cfg.L1Size/cfg.LineSize)
	}
}

// TestValidateRejectsHugeLevel: a level of 1<<62 one-byte lines is a
// power-of-two set count that used to pass Validate and panic in
// makeslice.
func TestValidateRejectsHugeLevel(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.LineSize = 1
	cfg.L3Size = 1 << 62
	if h, err := New(cfg); err == nil || h != nil {
		t.Fatalf("New accepted a %d-line L3", cfg.L3Size)
	}
}

// TestValidateRejectsCoresBeyondDirectory: the L3 directory holds one
// sharer bit per core in a uint64, so cores 64 and up had no bit (1<<64
// is 0 in Go) and the directory lost track of their copies.
func TestValidateRejectsCoresBeyondDirectory(t *testing.T) {
	if err := tinyConfig(maxCores).Validate(); err != nil {
		t.Fatalf("Validate refused %d cores: %v", maxCores, err)
	}
	if h, err := New(tinyConfig(maxCores + 1)); err == nil || h != nil {
		t.Fatalf("New accepted %d cores", maxCores+1)
	}
}
