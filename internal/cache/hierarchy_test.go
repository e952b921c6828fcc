package cache

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// hierGeoms are the tiny geometries the differential tests cover, all
// with 64 B lines. Some L3s hold fewer lines than the private levels
// together, so back-invalidations and lines leaving L3 under a private
// copy are frequent.
var hierGeoms = []Config{
	{LineSize: 64, L1Size: 512, L1Assoc: 2, L2Size: 1024, L2Assoc: 2, L3Size: 4096, L3Assoc: 4},
	{LineSize: 64, L1Size: 64, L1Assoc: 1, L2Size: 256, L2Assoc: 2, L3Size: 256, L3Assoc: 2},
	{LineSize: 64, L1Size: 256, L1Assoc: 2, L2Size: 512, L2Assoc: 4, L3Size: 1024, L3Assoc: 4},
	{LineSize: 64, L1Size: 128, L1Assoc: 2, L2Size: 256, L2Assoc: 4, L3Size: 512, L3Assoc: 8},
	{LineSize: 64, L1Size: 128, L1Assoc: 1, L2Size: 512, L2Assoc: 2, L3Size: 2048, L3Assoc: 2},
}

// hierPair drives Hierarchy and refHierarchy through the same operations
// and checks after every one that they agree and that Hierarchy's
// directory invariants hold.
type hierPair struct {
	h     *Hierarchy
	ref   *refHierarchy
	cores int
	// lines bounds the line addresses operations draw: 0..lines-1.
	lines uint64
	// evicts and refEv are each side's L3 evictions since the last check.
	evicts, refEv []uint64
	// orphan is the OrphanFills the reference's state predicts, and
	// orphanWrites counts writes by a core holding the line as an orphan.
	orphan       uint64
	orphanWrites int
}

func newHierPair(t testing.TB, geom, cores int) *hierPair {
	t.Helper()
	cfg := hierGeoms[geom%len(hierGeoms)]
	cfg.Cores = cores
	cfg.L1Lat, cfg.L2Lat, cfg.L3Lat = 2, 6, 30
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &hierPair{h: h, ref: ref, cores: cores, lines: uint64(2 * cfg.L3Size / cfg.LineSize)}
	h.OnL3Evict = func(la uint64) { p.evicts = append(p.evicts, la) }
	ref.OnL3Evict = func(la uint64) { p.refEv = append(p.refEv, la) }
	return p
}

// hierFrom are the service levels a prefetch fill may report. A fill
// reporting a cache level for a line L3 no longer holds is the orphan
// path.
var hierFrom = [...]Level{LvlL1, LvlL2, LvlL3, LvlMem}

// apply decodes one operation from two bytes: the low three bits of k
// pick the operation, the next three the core, the top two a prefetch's
// service level; a picks the line.
func (p *hierPair) apply(t testing.TB, k, a byte) {
	t.Helper()
	core := int(k>>3&7) % p.cores
	addr := uint64(a) % p.lines * 64
	from := hierFrom[k>>6]
	switch k & 7 {
	case 0, 1, 2:
		write := k&7 == 2
		if i := p.h.l2[core].findIdx(addr / 64); write && i >= 0 && p.h.l2[core].orphan[i] {
			p.orphanWrites++
		}
		if got, want := p.h.Access(core, addr, write), p.ref.Access(core, addr, write); got != want {
			t.Fatalf("Access(%d, %#x, %v) = %+v, want %+v", core, addr, write, got, want)
		}
	case 3:
		if got, want := p.h.Probe(core, addr), p.ref.Probe(core, addr); got != want {
			t.Fatalf("Probe(%d, %#x) = %v, want %v", core, addr, got, want)
		}
	case 4, 5:
		la := addr / 64
		if from != LvlMem && p.ref.l3.findIdx(la) < 0 && p.ref.l2[core].findIdx(la) < 0 {
			p.orphan++
		}
		if k&7 == 4 {
			p.h.FillPrefetch(core, addr, from)
			p.ref.FillPrefetch(core, addr, from)
		} else {
			p.h.FillPrefetchL2(core, addr, from)
			p.ref.FillPrefetchL2(core, addr, from)
		}
	default:
		p.h.TouchUsed(core, addr)
		p.ref.TouchUsed(core, addr)
	}
	p.check(t)
}

// check compares the two hierarchies' stats, ledgers, evictions and
// banks, then asserts the invariants the directory-guided walks rely on.
func (p *hierPair) check(t testing.TB) {
	t.Helper()
	st := p.h.Stats
	if st.OrphanFills != p.orphan {
		t.Fatalf("OrphanFills = %d, want %d", st.OrphanFills, p.orphan)
	}
	st.OrphanFills = 0
	if st != p.ref.Stats {
		t.Fatalf("Stats = %+v, want %+v", st, p.ref.Stats)
	}
	for c := range p.h.Life {
		if p.h.Life[c] != p.ref.Life[c] {
			t.Fatalf("Life[%d] = %+v, want %+v", c, p.h.Life[c], p.ref.Life[c])
		}
	}
	if !slices.Equal(p.evicts, p.refEv) {
		t.Fatalf("L3 evictions %#x, want %#x", p.evicts, p.refEv)
	}
	p.evicts, p.refEv = p.evicts[:0], p.refEv[:0]
	for c := 0; c < p.cores; c++ {
		sameBank(t, "L1", c, p.h.l1[c], p.ref.l1[c])
		sameBank(t, "L2", c, p.h.l2[c], p.ref.l2[c])
	}
	sameBank(t, "L3", 0, p.h.l3, p.ref.l3)
	for i, sh := range p.ref.l3.sharers {
		if p.h.l3.sharers[i] != sh {
			t.Fatalf("L3 slot %d: sharers %#x, want %#x", i, p.h.l3.sharers[i], sh)
		}
	}
	checkDirectory(t, p.h)
}

// sameBank compares two banks slot by slot: fingerprint words, tick,
// and each slot's line, and its tag and lru while it holds a line.
func sameBank(t testing.TB, lvl string, core int, b, ref *bank) {
	t.Helper()
	if b.tick != ref.tick {
		t.Fatalf("core %d %s: tick %d, want %d", core, lvl, b.tick, ref.tick)
	}
	for w := range b.fps {
		if b.fps[w] != ref.fps[w] {
			t.Fatalf("core %d %s: fingerprint word %d = %#x, want %#x", core, lvl, w, b.fps[w], ref.fps[w])
		}
	}
	for i := range b.lines {
		if b.lines[i] != ref.lines[i] {
			t.Fatalf("core %d %s slot %d: line %+v, want %+v", core, lvl, i, b.lines[i], ref.lines[i])
		}
		if ref.lines[i].state != stInvalid && (b.tags[i] != ref.tags[i] || b.lru[i] != ref.lru[i]) {
			t.Fatalf("core %d %s slot %d: tag %#x lru %d, want %#x lru %d",
				core, lvl, i, b.tags[i], b.lru[i], ref.tags[i], ref.lru[i])
		}
	}
}

// checkDirectory asserts the invariants that make the walks exact: the
// owner bits cover every sharer holding a line Exclusive or Modified,
// every L2 line is an orphan or held by a sharer of its L3 copy, and the
// orphan counts and mask match the flagged lines.
func checkDirectory(t testing.TB, h *Hierarchy) {
	t.Helper()
	for i, ln := range h.l3.lines {
		if ln.state == stInvalid {
			continue
		}
		la := h.l3.tags[i]
		for m := h.l3.sharers[i]; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			_, _, st1, st2 := copyAt(h, c, la<<h.lineShift)
			if max(st1, st2) >= stExclusive && h.l3.owners[i]&(1<<uint(c)) == 0 {
				t.Fatalf("line %#x: core %d holds it in state %d/%d outside owners %#x",
					la, c, st1, st2, h.l3.owners[i])
			}
		}
	}
	for c, l2 := range h.l2 {
		flagged := 0
		for j, ln := range l2.lines {
			if ln.state == stInvalid {
				if l2.orphan[j] {
					t.Fatalf("core %d L2 slot %d: empty but flagged orphan", c, j)
				}
				continue
			}
			if l2.orphan[j] {
				flagged++
				continue
			}
			if i := h.l3.findIdx(l2.tags[j]); i < 0 || h.l3.sharers[i]&(1<<uint(c)) == 0 {
				t.Fatalf("core %d holds line %#x in L2, neither an orphan nor a sharer of an L3 copy", c, l2.tags[j])
			}
		}
		if int(h.orphans[c]) != flagged || (h.orphanMask>>uint(c)&1 != 0) != (flagged > 0) {
			t.Fatalf("core %d: orphans %d, mask %#x; %d lines flagged", c, h.orphans[c], h.orphanMask, flagged)
		}
	}
}

// TestHierarchyMatchesRef is the tier-1 run of the differential check:
// 150 seeds of 2,000 operations over every geometry in hierGeoms and 2
// to 8 cores.
func TestHierarchyMatchesRef(t *testing.T) {
	const seeds, ops = 150, 2000
	var orphans uint64
	orphanWrites := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newHierPair(t, int(seed), 2+int(seed/int64(len(hierGeoms)))%7)
		for i := 0; i < ops; i++ {
			p.apply(t, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		orphans += p.h.Stats.OrphanFills
		orphanWrites += p.orphanWrites
	}
	if orphans == 0 || orphanWrites == 0 {
		t.Fatalf("%d orphan fills and %d writes to orphans, want both above 0", orphans, orphanWrites)
	}
}

// FuzzHierarchyVsRef checks Hierarchy against the reference on
// arbitrary operation sequences over the hierGeoms geometries and 2 to 8
// cores.
func FuzzHierarchyVsRef(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{0, 1, 8, 1, 2, 1, 0x44, 1, 10, 1})
	f.Fuzz(func(t *testing.T, geom, cores uint8, ops []byte) {
		p := newHierPair(t, int(geom), 2+int(cores%7))
		for i := 0; i+1 < len(ops); i += 2 {
			p.apply(t, ops[i], ops[i+1])
		}
	})
}
