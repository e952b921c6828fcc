package memspace

import (
	"math"
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
