package workloads

import (
	"runtime"
	"strings"
	"testing"

	"prodigy/internal/memspace"
)

func buildMemlat(t *testing.T, cfg MemlatConfig) *Workload {
	t.Helper()
	w, err := BuildMemlat(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMemlatChainIsFullCycle(t *testing.T) {
	for _, cfg := range []MemlatConfig{
		{Pattern: MemlatChase, WorkingSet: 4096},
		{Pattern: MemlatChase, WorkingSet: 1 << 16},
		{Pattern: MemlatStride, WorkingSet: 4096},
		{Pattern: MemlatStride, WorkingSet: 1 << 14, StrideBytes: 256},
		// gcd(stride lines, lines) > 1: the residue cycles must still be
		// stitched into one covering cycle.
		{Pattern: MemlatStride, WorkingSet: 1 << 14, StrideBytes: 128},
		{Pattern: MemlatTLB, WorkingSet: 96 * memspace.PageSize},
	} {
		w := buildMemlat(t, cfg)
		if w.Cores != 1 {
			t.Fatalf("%s: cores = %d, want 1 (serial chase)", w.Name, w.Cores)
		}
	}
}

func TestMemlatTLBLinesStayInL1Sets(t *testing.T) {
	// The TLB variant must spread its one-line-per-page footprint across
	// L1 sets: with 96 pages and 32 L1 sets no set may hold more lines
	// than its associativity (4), or the "pure walk" plateau would pick
	// up L1 misses.
	w := buildMemlat(t, MemlatConfig{Pattern: MemlatTLB, WorkingSet: 96 * memspace.PageSize})
	const lineSize, l1Sets, l1Assoc = 64, 32, 4
	perSet := map[uint64]int{}
	base := w.Space.Regions()[0].BaseAddr
	for i := 0; i < 96; i++ {
		addr := base + uint64(i*memspace.PageSize+i*lineSize%memspace.PageSize)
		perSet[addr/lineSize%l1Sets]++
	}
	for set, n := range perSet {
		if n > l1Assoc {
			t.Fatalf("L1 set %d holds %d memlat-tlb lines, want <= %d", set, n, l1Assoc)
		}
	}
}

func TestMemlatRejectsBadConfig(t *testing.T) {
	if _, err := BuildMemlat(MemlatConfig{Pattern: "walk", WorkingSet: 4096}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	if _, err := BuildMemlat(MemlatConfig{Pattern: MemlatChase, WorkingSet: 100}); err == nil {
		t.Fatal("non-line-multiple working set accepted")
	}
	if _, err := BuildMemlat(MemlatConfig{Pattern: MemlatTLB, WorkingSet: 4096 + 64}); err == nil {
		t.Fatal("non-page-multiple tlb working set accepted")
	}
}

// TestMemlatRejectsOversizedWorkingSet checks that a working set past the
// 4 GiB simulated address space is an error, returned before any of it
// is allocated.
func TestMemlatRejectsOversizedWorkingSet(t *testing.T) {
	for _, p := range []string{MemlatChase, MemlatStride, MemlatTLB} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := BuildMemlat(MemlatConfig{Pattern: p, WorkingSet: memspace.Limit})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "4 GiB") {
			t.Errorf("%s: err = %v, want the address-space refusal", p, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d bytes allocated before refusing", p, grew)
		}
	}
}
