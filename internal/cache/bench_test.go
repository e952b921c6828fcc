package cache

import (
	"io"
	"testing"

	"prodigy/internal/obs"
)

// BenchmarkHierarchyAccess drives the demand path with a mix of L1 hits,
// write upgrades, and streaming misses that evict through all three
// levels. The hot-path contract is 0 allocs/op; `make bench-json` fails
// if this regresses above the committed BENCH_*.json baseline.
func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := New(ScaledDefault(1))
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(h.Config().LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		switch i & 3 {
		case 0: // hot line: L1 hit
			h.Access(0, (n%64)*line, false)
		case 1: // write upgrade on the hot set
			h.Access(0, (n%64)*line, true)
		case 2: // streaming read: misses and evictions at every level
			h.Access(0, 1<<24+n*line, false)
		default: // streaming write miss (fill + upgrade + dirty eviction)
			h.Access(0, 2<<24+n*line, true)
		}
	}
}

// BenchmarkFillPrefetch measures the prefetch-fill path (Probe + fill +
// replacement) that the simulator runs once per completed prefetch. Like
// the demand path, it includes the always-on lifecycle attribution
// (per-line tag + per-core Life counters) and must stay at 0 allocs/op.
func BenchmarkFillPrefetch(b *testing.B) {
	h, err := New(ScaledDefault(1))
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(h.Config().LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FillPrefetch(0, uint64(i)*line, LvlMem)
	}
}

// BenchmarkHierarchyAccessObs is BenchmarkHierarchyAccess with a metrics
// recorder attached. The recorder reads the hierarchy's Stats only at
// interval boundaries, so an observed access should cost what an
// unobserved one does.
func BenchmarkHierarchyAccessObs(b *testing.B) {
	h, err := New(ScaledDefault(1))
	if err != nil {
		b.Fatal(err)
	}
	r := obs.New(obs.Options{Metrics: io.Discard})
	r.Start(1, nil, nil)
	h.Attach(r)
	line := uint64(h.Config().LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		switch i & 3 {
		case 0:
			h.Access(0, (n%64)*line, false)
		case 1:
			h.Access(0, (n%64)*line, true)
		case 2:
			h.Access(0, 1<<24+n*line, false)
		default:
			h.Access(0, 2<<24+n*line, true)
		}
	}
}

// BenchmarkHierarchyMiss drives the DRAM path on four cores. Six ops in
// eight are cores 0 and 1 missing to fresh lines: each chooses an LRU
// victim in a full 16-way L3 set, back-invalidates it from every core's
// private caches, and fills L2 and L1 over their own victims (one in six
// is a write, so victims go dirty). The other two are cores 2 and 3
// reading a 64-line hot region that nothing else displaces from their L1
// and L2. Private hits do not refresh the L3's LRU order, so the hot
// lines age out of the L3 while cached, and the eviction fan-out finds
// two copies to invalidate before the next hot read misses to DRAM.
// Like the demand and prefetch benchmarks, it must stay at 0 allocs/op.
func BenchmarkHierarchyMiss(b *testing.B) {
	h, err := New(ScaledDefault(4))
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(h.Config().LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		if i&7 < 6 {
			h.Access(i&1, 1<<24+n*line, i&7 == 5)
		} else {
			h.Access(2+i&1, (n>>3%64)*line, false)
		}
	}
}

// BenchmarkHierarchySharedRead drives the coherence walks on eight cores
// that read-share a region larger than the L3. The cores read each line
// in turn: the first read misses to DRAM and evicts the L3's least
// recently used line, which all eight cores read and so hold sharer bits
// for; the other seven hit in L3 with the earlier readers as sharers,
// the first of them downgrading the Exclusive copy. Like the other
// hierarchy benchmarks, it must stay at 0 allocs/op.
func BenchmarkHierarchySharedRead(b *testing.B) {
	h, err := New(ScaledDefault(8))
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(h.Config().LineSize)
	const region = 3 << 10 // lines; the L3 holds 2 Ki
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i&7, uint64(i>>3%region)*line, false)
	}
}
