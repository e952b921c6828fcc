// Package memspace provides a simulated virtual address space.
//
// Workloads allocate typed arrays inside a Space; every array occupies a
// contiguous, page-aligned virtual address range. The Space supports
// functional reads at arbitrary virtual addresses, which is how hardware
// prefetchers that dereference prefetched data (Prodigy, IMP, Ainsworth &
// Jones) obtain the values a real machine would read from DRAM.
package memspace

import (
	"fmt"
	"math"
	"math/bits"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Base is the lowest virtual address handed out by a Space. Address zero is
// reserved so that a zero address can act as a sentinel.
const Base = 0x10000

// Limit bounds the simulated address space: no region reaches past it.
// Instruction traces carry 32-bit addresses (trace.Instr), so the space
// is 4 GiB.
const Limit = 1 << 32

// Region describes one allocated array's placement in the address space.
type Region struct {
	Name     string
	BaseAddr uint64
	ElemSize uint64
	Len      uint64 // number of elements
	shift    uint8  // log2(ElemSize): element sizes are 4 or 8
	read     func(idx uint64) uint64
}

// Bound returns one past the last valid byte address of the region.
func (r *Region) Bound() uint64 { return r.BaseAddr + r.ElemSize*r.Len }

// Bytes returns the region's footprint in bytes.
func (r *Region) Bytes() uint64 { return r.ElemSize * r.Len }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.BaseAddr && addr < r.Bound()
}

// Space is a simulated virtual address space: an ordered set of regions.
type Space struct {
	regions []*Region // sorted by BaseAddr
	// bounds[i] is regions[i].Bound(), precomputed for FindRegion's binary
	// search (strictly increasing, like the bases).
	bounds []uint64
	next   uint64
}

// New returns an empty address space.
func New() *Space {
	return &Space{next: Base}
}

// Regions returns the allocated regions in address order.
func (s *Space) Regions() []*Region { return s.regions }

// Fit returns an error unless a region of n elements of elemSize bytes
// fits in the room left below Limit. It allocates nothing, so callers can
// refuse an oversized request before building any of it.
func (s *Space) Fit(name string, elemSize uint64, n int) error {
	var room uint64
	if s.next < Limit {
		room = Limit - s.next
	}
	if n < 0 || uint64(n) > room/elemSize {
		return fmt.Errorf("memspace: region %q of %d %d-byte elements does not fit in the 4 GiB address space (%d bytes free at %#x)",
			name, n, elemSize, room, s.next)
	}
	return nil
}

// alloc places a region of n elements of elemSize bytes, a power of two.
// It panics, before the caller allocates the backing array, if the region
// would reach past Limit.
func (s *Space) alloc(name string, elemSize uint64, n int) *Region {
	if err := s.Fit(name, elemSize, n); err != nil {
		panic(err)
	}
	r := &Region{Name: name, BaseAddr: s.next, ElemSize: elemSize, Len: uint64(n),
		shift: uint8(bits.TrailingZeros64(elemSize))}
	sz := r.Bytes()
	s.next += (sz + PageSize - 1) / PageSize * PageSize
	// Keep at least one unmapped guard page between regions so that an
	// off-by-one traversal bug faults loudly instead of aliasing.
	s.next += PageSize
	s.regions = append(s.regions, r)
	s.bounds = append(s.bounds, r.Bound())
	return r
}

// FindRegion returns the region containing addr, or nil.
func (s *Space) FindRegion(addr uint64) *Region {
	// Binary search for the first region whose bound lies above addr.
	lo, hi := 0, len(s.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.bounds[mid] > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(s.regions) && addr >= s.regions[lo].BaseAddr {
		return s.regions[lo]
	}
	return nil
}

// ReadAt performs a functional read of the element containing addr and
// returns its value widened to uint64. Float values are returned as their
// IEEE-754 bit patterns. The second result is false if addr is unmapped.
func (s *Space) ReadAt(addr uint64) (uint64, bool) {
	r := s.FindRegion(addr)
	if r == nil {
		return 0, false
	}
	return r.read((addr - r.BaseAddr) >> r.shift), true
}

// U32 is a uint32 array living in a Space.
type U32 struct {
	*Region
	Data []uint32
}

// AllocU32 allocates a uint32 array of n elements.
func (s *Space) AllocU32(name string, n int) *U32 {
	a := &U32{Region: s.alloc(name, 4, n)}
	a.Data = make([]uint32, n)
	a.Region.read = func(i uint64) uint64 { return uint64(a.Data[i]) }
	return a
}

// Addr returns the virtual address of element i.
func (a *U32) Addr(i int) uint64 { return a.BaseAddr + 4*uint64(i) }

// U64 is a uint64 array living in a Space.
type U64 struct {
	*Region
	Data []uint64
}

// AllocU64 allocates a uint64 array of n elements.
func (s *Space) AllocU64(name string, n int) *U64 {
	a := &U64{Region: s.alloc(name, 8, n)}
	a.Data = make([]uint64, n)
	a.Region.read = func(i uint64) uint64 { return a.Data[i] }
	return a
}

// Addr returns the virtual address of element i.
func (a *U64) Addr(i int) uint64 { return a.BaseAddr + 8*uint64(i) }

// F64 is a float64 array living in a Space. Functional reads return
// IEEE-754 bit patterns.
type F64 struct {
	*Region
	Data []float64
}

// AllocF64 allocates a float64 array of n elements.
func (s *Space) AllocF64(name string, n int) *F64 {
	a := &F64{Region: s.alloc(name, 8, n)}
	a.Data = make([]float64, n)
	a.Region.read = func(i uint64) uint64 { return math.Float64bits(a.Data[i]) }
	return a
}

// Addr returns the virtual address of element i.
func (a *F64) Addr(i int) uint64 { return a.BaseAddr + 8*uint64(i) }

// F32 is a float32 array living in a Space.
type F32 struct {
	*Region
	Data []float32
}

// AllocF32 allocates a float32 array of n elements.
func (s *Space) AllocF32(name string, n int) *F32 {
	a := &F32{Region: s.alloc(name, 4, n)}
	a.Data = make([]float32, n)
	a.Region.read = func(i uint64) uint64 { return uint64(math.Float32bits(a.Data[i])) }
	return a
}

// Addr returns the virtual address of element i.
func (a *F32) Addr(i int) uint64 { return a.BaseAddr + 4*uint64(i) }
