package tlb

import (
	"strings"
	"testing"
	"testing/quick"
)

// mustNew builds a TLB from a config the test knows is valid.
func mustNew(t *testing.T, cfg Config) *TLB {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return tb
}

func TestHitAfterMiss(t *testing.T) {
	tb := mustNew(t, Default())
	if lat := tb.Translate(0x1234); lat != 20 {
		t.Fatalf("cold translate lat = %d, want 20", lat)
	}
	if lat := tb.Translate(0x1FFF); lat != 0 {
		t.Fatalf("same-page translate lat = %d, want 0", lat)
	}
	if lat := tb.Translate(0x2000); lat != 20 {
		t.Fatalf("next-page translate lat = %d, want 20", lat)
	}
	if tb.Stats.Accesses != 3 || tb.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
}

func TestCapacityEviction(t *testing.T) {
	cfg := Config{Entries: 4, Assoc: 4, PageBits: 12, WalkLat: 10}
	tb := mustNew(t, cfg)
	// Fill 4 pages, then a 5th evicts the LRU (page 0).
	for p := uint64(0); p < 5; p++ {
		tb.Translate(p << 12)
	}
	if lat := tb.Translate(0); lat != 10 {
		t.Fatal("page 0 should have been evicted")
	}
	if lat := tb.Translate(4 << 12); lat != 0 {
		t.Fatal("page 4 should still be resident")
	}
}

func TestMissRate(t *testing.T) {
	tb := mustNew(t, Default())
	tb.Translate(0)
	tb.Translate(0)
	if got := tb.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
	if mustNew(t, Default()).MissRate() != 0 {
		t.Error("empty TLB miss rate should be 0")
	}
}

// Property: translating the same page twice in a row is always a hit the
// second time.
func TestQuickRepeatHit(t *testing.T) {
	tb := mustNew(t, Default())
	f := func(addr uint64) bool {
		tb.Translate(addr)
		return tb.Translate(addr) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: with a 32-bit tick, LRU timestamps wrapped after 2^32
// translations, so resident entries (huge stale stamps) looked younger
// than fresh installs (tiny post-wrap stamps) and every miss evicted the
// MRU slot. Force the tick past the old wrap point and check that
// eviction still picks the genuinely least-recently-used page.
func TestLRUSurvivesTickWrap(t *testing.T) {
	cfg := Config{Entries: 4, Assoc: 4, PageBits: 12, WalkLat: 10}
	tb := mustNew(t, cfg)
	// Simulate 2^32-2 translations having already happened, so the
	// touches below straddle the uint32 wrap boundary.
	tb.tick = (1 << 32) - 2
	tb.Translate(0 << 12) // tick 2^32-1
	tb.Translate(1 << 12) // tick 2^32 — would wrap to 0 as uint32
	tb.Translate(2 << 12)
	tb.Translate(3 << 12)
	// The set is full; page 0 is LRU. Under the wrapped uint32 ordering
	// pages 1..3 (stamps 0,1,2 mod 2^32) would look older than page 0
	// (stamp 2^32-1) and page 1 — the MRU of the wrap cycle — would be
	// evicted instead.
	tb.Translate(4 << 12)
	if lat := tb.Translate(1 << 12); lat != 0 {
		t.Fatal("page 1 evicted: LRU ordering inverted across the 2^32 tick boundary")
	}
	if lat := tb.Translate(0 << 12); lat != 10 {
		t.Fatal("page 0 should have been the eviction victim")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero entries", Config{Entries: 0, Assoc: 4, PageBits: 12}, "must be positive"},
		{"zero assoc", Config{Entries: 64, Assoc: 0, PageBits: 12}, "must be positive"},
		{"assoc exceeds entries", Config{Entries: 4, Assoc: 8, PageBits: 12}, "exceeds entries"},
		{"non-integral sets", Config{Entries: 6, Assoc: 4, PageBits: 12}, "not divisible"},
		{"non-pow2 sets", Config{Entries: 24, Assoc: 4, PageBits: 12}, "power of two"},
		{"zero page bits", Config{Entries: 64, Assoc: 4, PageBits: 0}, "page bits"},
		{"negative walk", Config{Entries: 64, Assoc: 4, PageBits: 12, WalkLat: -1}, "negative walk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := New(tc.cfg)
			if err == nil {
				t.Fatalf("New(%+v) accepted an invalid config (tlb=%v)", tc.cfg, tb != nil)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}
}

// TestValidateRejectsHugeTLB: 1<<62 entries is a power-of-two set count
// that used to pass Validate and panic in makeslice.
func TestValidateRejectsHugeTLB(t *testing.T) {
	cfg := Config{Entries: 1 << 62, Assoc: 1, PageBits: 12, WalkLat: 20}
	if tb, err := New(cfg); err == nil || tb != nil {
		t.Fatalf("New accepted %d entries", cfg.Entries)
	}
}
