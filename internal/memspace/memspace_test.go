package memspace

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllocLayout(t *testing.T) {
	s := New()
	a := s.AllocU32("a", 100)
	b := s.AllocU64("b", 10)
	if a.BaseAddr != Base {
		t.Fatalf("first region base = %#x, want %#x", a.BaseAddr, Base)
	}
	if a.BaseAddr%PageSize != 0 || b.BaseAddr%PageSize != 0 {
		t.Fatalf("regions not page aligned: %#x %#x", a.BaseAddr, b.BaseAddr)
	}
	if b.BaseAddr < a.Bound()+PageSize {
		t.Fatalf("missing guard page: a bound %#x, b base %#x", a.Bound(), b.BaseAddr)
	}
	if got := a.Bytes(); got != 400 {
		t.Fatalf("a.Bytes() = %d, want 400", got)
	}
	if got := b.Bytes(); got != 80 {
		t.Fatalf("b.Bytes() = %d, want 80", got)
	}
}

// mustReadAt is ReadAt that fails the test on an unmapped address.
func mustReadAt(t *testing.T, s *Space, addr uint64) uint64 {
	t.Helper()
	v, ok := s.ReadAt(addr)
	if !ok {
		t.Fatalf("read of unmapped address %#x", addr)
	}
	return v
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := New()
	u32 := s.AllocU32("u32", 8)
	u64 := s.AllocU64("u64", 8)
	f64 := s.AllocF64("f64", 8)
	f32 := s.AllocF32("f32", 8)

	u32.Data[3] = 0xdeadbeef
	if v := mustReadAt(t, s, u32.Addr(3)); v != 0xdeadbeef {
		t.Errorf("u32 read = %#x", v)
	}
	u64.Data[7] = 1 << 40
	if v := mustReadAt(t, s, u64.Addr(7)); v != 1<<40 {
		t.Errorf("u64 read = %#x", v)
	}
	f64.Data[0] = 3.25
	if v := mustReadAt(t, s, f64.Addr(0)); math.Float64frombits(v) != 3.25 {
		t.Errorf("f64 read = %v", math.Float64frombits(v))
	}
	f32.Data[5] = -1.5
	if v := mustReadAt(t, s, f32.Addr(5)); math.Float32frombits(uint32(v)) != -1.5 {
		t.Errorf("f32 read = %v", math.Float32frombits(uint32(v)))
	}
}

func TestUnalignedReadHitsContainingElement(t *testing.T) {
	s := New()
	a := s.AllocU64("a", 4)
	a.Data[1] = 777
	// Any byte address inside element 1 reads element 1.
	for off := uint64(0); off < 8; off++ {
		if v := mustReadAt(t, s, a.Addr(1)+off); v != 777 {
			t.Fatalf("read at +%d = %d, want 777", off, v)
		}
	}
}

func TestUnmappedAddresses(t *testing.T) {
	s := New()
	a := s.AllocU32("a", 4)
	if _, ok := s.ReadAt(0); ok {
		t.Error("read at 0 should fail")
	}
	if _, ok := s.ReadAt(a.Bound()); ok {
		t.Error("read just past bound should fail (guard page)")
	}
	if _, ok := s.ReadAt(a.Bound() + PageSize - 1); ok {
		t.Error("read in the last byte of the guard page should fail")
	}
	if r := s.FindRegion(a.Bound() + 1); r != nil {
		t.Error("FindRegion in guard page should be nil")
	}
}

// refFindRegion is the closure-based sort.Search lookup FindRegion's
// precomputed-bound search replaced, kept as the differential reference.
func refFindRegion(s *Space, addr uint64) *Region {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].Bound() > addr
	})
	if i < len(s.regions) && s.regions[i].Contains(addr) {
		return s.regions[i]
	}
	return nil
}

func TestFindRegionManyRegions(t *testing.T) {
	s := New()
	var arrs []*U32
	for i := 0; i < 50; i++ {
		arrs = append(arrs, s.AllocU32("r", 10+i))
	}
	for i, a := range arrs {
		if got := s.FindRegion(a.Addr(5)); got != a.Region {
			t.Fatalf("region %d not found by mid address", i)
		}
		if got := s.FindRegion(a.BaseAddr); got != a.Region {
			t.Fatalf("region %d not found by base", i)
		}
		if got := s.FindRegion(a.Bound() - 1); got != a.Region {
			t.Fatalf("region %d not found by last byte", i)
		}
	}

	// Differential check against the sort.Search lookup, on a space that
	// mixes element sizes, zero-length regions and multi-page regions:
	// every region's edges, its guard page, below Base and past the end.
	s = New()
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			s.AllocU32("u32", 3*i)
		case 1:
			s.AllocU64("u64", 0)
		case 2:
			s.AllocF64("f64", 700*i)
		default:
			s.AllocF32("f32", i)
		}
	}
	probes := []uint64{0, 1, Base - 1, Base, s.next, s.next + 1, ^uint64(0)}
	for _, r := range s.Regions() {
		for _, a := range []uint64{r.BaseAddr - 1, r.BaseAddr, r.BaseAddr + 1,
			r.BaseAddr + r.Bytes()/2, r.Bound() - 1, r.Bound(), r.Bound() + 1,
			r.Bound() + PageSize - 1, r.Bound() + PageSize} {
			probes = append(probes, a)
		}
	}
	for _, a := range probes {
		want := refFindRegion(s, a)
		if got := s.FindRegion(a); got != want {
			t.Fatalf("FindRegion(%#x) = %v, sort.Search reference = %v", a, got, want)
		}
		if _, ok := s.ReadAt(a); ok != (want != nil) {
			t.Fatalf("ReadAt(%#x) ok = %v, want %v", a, ok, want != nil)
		}
	}
}

// Property: for any in-range index, Addr/ReadAt round-trips the stored value.
func TestQuickU32RoundTrip(t *testing.T) {
	s := New()
	const n = 257
	a := s.AllocU32("q", n)
	f := func(idx uint16, val uint32) bool {
		i := int(idx) % n
		a.Data[i] = val
		got, ok := s.ReadAt(a.Addr(i))
		return ok && got == uint64(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: regions never overlap and are sorted by base address.
func TestQuickNoOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := New()
		for _, sz := range sizes {
			s.AllocU64("x", int(sz)+1)
		}
		rs := s.Regions()
		for i := 1; i < len(rs); i++ {
			if rs[i].BaseAddr < rs[i-1].Bound() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFitBoundary checks that a region may end exactly at Limit and not
// one element past it, for either element size, and that each placed
// region shrinks the room left.
func TestFitBoundary(t *testing.T) {
	for _, es := range []uint64{4, 8} {
		s := New()
		max := int((Limit - Base) / es)
		if err := s.Fit("x", es, max); err != nil {
			t.Errorf("%d-byte: a region ending at Limit refused: %v", es, err)
		}
		if err := s.Fit("x", es, max+1); err == nil {
			t.Errorf("%d-byte: a region ending past Limit accepted", es)
		}
		if err := s.Fit("x", es, -1); err == nil {
			t.Errorf("%d-byte: a negative length accepted", es)
		}
	}
	s := New()
	a := s.AllocU32("a", 1000)
	if err := s.Fit("x", 4, int((Limit-Base)/4)); err == nil {
		t.Error("Fit ignores the room an earlier region took")
	}
	// The next region starts past a's last page and one guard page.
	next := (a.Bound()+PageSize-1)/PageSize*PageSize + PageSize
	if err := s.Fit("x", 4, int((Limit-next)/4)); err != nil {
		t.Errorf("the rest of the space refused: %v", err)
	}
}

// TestAllocRefusesBeforeAllocating checks that every allocator refuses
// a region that cannot fit below Limit with its own error, naming the
// region, before it allocates the backing array. The lengths are ones
// make itself rejects, so a refusal placed after the make shows up as
// the runtime's error instead of this package's.
func TestAllocRefusesBeforeAllocating(t *testing.T) {
	allocs := map[string]func(*Space, string, int){
		"U32": func(s *Space, name string, n int) { s.AllocU32(name, n) },
		"U64": func(s *Space, name string, n int) { s.AllocU64(name, n) },
		"F64": func(s *Space, name string, n int) { s.AllocF64(name, n) },
		"F32": func(s *Space, name string, n int) { s.AllocF32(name, n) },
	}
	for typ, alloc := range allocs {
		for _, n := range []int{-1, 1 << 62} {
			s := New()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msg := func() (msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = fmt.Sprint(p)
					}
				}()
				alloc(s, "huge", n)
				return ""
			}()
			runtime.ReadMemStats(&after)
			if !strings.Contains(msg, "memspace:") || !strings.Contains(msg, `"huge"`) {
				t.Errorf("Alloc%s(%d): panic %q, want the memspace refusal naming the region", typ, n, msg)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("Alloc%s(%d): %d bytes allocated before refusing", typ, n, grew)
			}
			if len(s.Regions()) != 0 {
				t.Errorf("Alloc%s(%d): refused region still placed", typ, n)
			}
		}
	}
}
