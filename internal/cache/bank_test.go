package cache

import (
	"math/rand"
	"testing"
)

// bankPair drives the fingerprinted bank and the filter-plus-scan
// refBank through the same operations and checks that they agree after
// every one. Slot numbering differs between the two (refBank is
// set*assoc + way, bank is planar), so answers are compared as ways.
type bankPair struct {
	b    *bank
	ref  *refBank
	pool []uint64 // line addresses the operations draw from
}

func newBankPair(sets, assoc int, rng *rand.Rand) *bankPair {
	const lineSize = 64
	size := sets * assoc * lineSize
	return &bankPair{
		b:    newBank(size, assoc, lineSize, false),
		ref:  newRefBank(size, assoc, lineSize, false),
		pool: addrPool(rng, sets, assoc),
	}
}

// addrPool returns line addresses that crowd a few sets: for each of
// three sets, one line, assoc lines whose fingerprints equal its own,
// and assoc+2 more lines of the set, so sets overflow, evict and hold
// several lines with one fingerprint. Line address 0 and its set are
// always included: 0 is a valid line address.
func addrPool(rng *rand.Rand, sets, assoc int) []uint64 {
	n := uint64(sets)
	pool := []uint64{0, n, 2 * n}
	for h := 0; h < 3; h++ {
		s := uint64(rng.Intn(sets))
		base := s + n*uint64(rng.Intn(1<<20))
		pool = append(pool, base)
		for t, found := base+n, 0; found < assoc; t += n {
			if fingerprint(t) == fingerprint(base) {
				pool = append(pool, t)
				found++
			}
		}
		for j := 0; j < assoc+2; j++ {
			pool = append(pool, s+n*uint64(rng.Intn(1<<20)))
		}
	}
	seen := map[uint64]bool{}
	out := pool[:0]
	for _, la := range pool {
		if !seen[la] {
			seen[la] = true
			out = append(out, la)
		}
	}
	return out
}

// slot returns the global slot index of way k of set s.
func (b *bank) slot(s, k int) int {
	return (k>>3*b.nsets+s)<<3 | k&7
}

// wayOf returns the way of set s that slot i holds (the inverse of slot).
func (b *bank) wayOf(s, i int) int {
	return (i>>3-s)/b.nsets*8 + i&7
}

// lookup returns the way of lineAddr within its set, or -1.
func (b *bank) lookup(lineAddr uint64) int {
	if i := b.findIdx(lineAddr); i >= 0 {
		return b.wayOf(int(lineAddr&b.setMask), i)
	}
	return -1
}

// way returns the line in way w of lineAddr's set.
func (b *bank) way(lineAddr uint64, w int) *line {
	return &b.lines[b.slot(int(lineAddr&b.setMask), w)]
}

// way converts a slot of either bank to its way within la's set (-1
// stays -1).
func (p *bankPair) way(la uint64, i int) int {
	if i < 0 {
		return -1
	}
	return p.b.wayOf(int(la&p.b.setMask), i)
}

func (p *bankPair) refWay(la uint64, i int) int {
	if i < 0 {
		return -1
	}
	return i - int(la&p.ref.setMask)*p.ref.assoc
}

// refVictim is the reference's victim for a line it does not hold.
func (p *bankPair) refVictim(la uint64) int {
	i, hit := p.ref.findOrVictim(la)
	if hit {
		panic("refVictim of a resident line")
	}
	return i
}

// apply decodes one operation from two bytes: k picks the operation, a
// the line address (and, for aging, the way and its new lru).
func (p *bankPair) apply(t testing.TB, k, a byte) {
	t.Helper()
	la := p.pool[int(a)%len(p.pool)]
	switch k % 6 {
	case 0: // fill that may find the line resident (a prefetch fill)
		i, hit := p.b.findOrVictim(la)
		ri, rhit := p.ref.findOrVictim(la)
		if hit != rhit || p.way(la, i) != p.refWay(la, ri) {
			t.Fatalf("findOrVictim(%#x) = way %d, %v; want way %d, %v", la, p.way(la, i), hit, p.refWay(la, ri), rhit)
		}
		if hit {
			p.b.touchIdx(i)
			p.ref.touchIdx(ri)
		} else {
			p.install(i, ri, la, k)
		}
	case 1: // fill after a miss: the victim-only entry
		if p.ref.findIdx(la) >= 0 {
			return
		}
		i, ri := p.b.victim(la), p.refVictim(la)
		if p.way(la, i) != p.refWay(la, ri) {
			t.Fatalf("victim(%#x) = way %d, want way %d", la, p.way(la, i), p.refWay(la, ri))
		}
		p.install(i, ri, la, k)
	case 2: // invalidate
		i, ri := p.b.findIdx(la), p.ref.findIdx(la)
		if p.way(la, i) != p.refWay(la, ri) {
			t.Fatalf("findIdx(%#x) = way %d, want way %d", la, p.way(la, i), p.refWay(la, ri))
		}
		if i >= 0 {
			if st, rst := p.b.invalidateIdx(i), p.ref.invalidateIdx(ri); st != rst {
				t.Fatalf("invalidateIdx(%#x) = state %d, want %d", la, st, rst)
			}
		}
	case 3: // touch a resident line
		i, ri := p.b.findIdx(la), p.ref.findIdx(la)
		if i >= 0 && ri >= 0 {
			p.b.touchIdx(i)
			p.ref.touchIdx(ri)
		}
	case 4: // set one way's lru to a small value, so LRU ties occur
		s := int(la & p.b.setMask)
		w := int(k>>3) % p.b.assoc
		lru := uint32(a & 3)
		p.b.lru[p.b.slot(s, w)] = lru
		p.ref.lines[s*p.ref.assoc+w].lru = lru
	default: // a lookup: the checks below
	}
	probe := p.pool[(int(a)*7+int(k))%len(p.pool)]
	p.check(t, la)
	p.check(t, probe)
}

// install fills slot i (ri in the reference) with la in both banks.
func (p *bankPair) install(i, ri int, la uint64, k byte) {
	ln := line{state: stShared + k>>6%3, prefetched: k&0x20 != 0}
	p.b.fill(i, la, ln)
	p.ref.lines[ri] = refLine{state: ln.state, prefetched: ln.prefetched}
	p.ref.setTag(ri, la+1)
	p.ref.touchIdx(ri)
}

// check compares every answer for la and the whole state of its set.
func (p *bankPair) check(t testing.TB, la uint64) {
	t.Helper()
	i, ri := p.b.findIdx(la), p.ref.findIdx(la)
	if p.way(la, i) != p.refWay(la, ri) {
		t.Fatalf("findIdx(%#x) = way %d, want way %d", la, p.way(la, i), p.refWay(la, ri))
	}
	vi, hit := p.b.findOrVictim(la)
	rvi, rhit := p.ref.findOrVictim(la)
	if hit != rhit || p.way(la, vi) != p.refWay(la, rvi) {
		t.Fatalf("findOrVictim(%#x) = way %d, %v; want way %d, %v", la, p.way(la, vi), hit, p.refWay(la, rvi), rhit)
	}
	if !rhit {
		if v := p.b.victim(la); p.way(la, v) != p.refWay(la, rvi) {
			t.Fatalf("victim(%#x) = way %d, want way %d", la, p.way(la, v), p.refWay(la, rvi))
		}
	}
	p.checkSet(t, int(la&p.b.setMask))
}

// checkSet compares set s way by way: validity, tag and line metadata,
// and that each fingerprint lane matches what its slot holds.
func (p *bankPair) checkSet(t testing.TB, s int) {
	t.Helper()
	for w := 0; w < (p.b.assoc+7)/8*8; w++ {
		i := p.b.slot(s, w)
		lane := p.b.fps[i>>3] >> (8 * uint(i&7)) & 0xFF
		if w >= p.b.assoc {
			if lane != fpPad || p.b.lines[i] != (line{}) || p.b.lru[i] != 0 {
				t.Fatalf("set %d padding way %d: lane %#x, line %+v, lru %d", s, w, lane, p.b.lines[i], p.b.lru[i])
			}
			continue
		}
		ri := s*p.ref.assoc + w
		valid := p.b.lines[i].state != stInvalid
		if valid != (p.ref.tags[ri] != 0) {
			t.Fatalf("set %d way %d: valid %v, reference tag %#x", s, w, valid, p.ref.tags[ri])
		}
		// An empty slot's lru is never read, and only the reference
		// clears it.
		rl := p.ref.lines[ri]
		if p.b.lines[i] != (line{rl.state, rl.prefetched, rl.used, rl.fromMem}) || valid && p.b.lru[i] != rl.lru {
			t.Fatalf("set %d way %d: line %+v, lru %d; want %+v", s, w, p.b.lines[i], p.b.lru[i], rl)
		}
		switch {
		case !valid && lane != fpInvalid:
			t.Fatalf("set %d way %d: empty, lane %#x", s, w, lane)
		case valid && p.b.tags[i] != p.ref.tags[ri]-1:
			t.Fatalf("set %d way %d: tag %#x, want %#x", s, w, p.b.tags[i], p.ref.tags[ri]-1)
		case valid && lane != fingerprint(p.b.tags[i]):
			t.Fatalf("set %d way %d: lane %#x, want fingerprint %#x", s, w, lane, fingerprint(p.b.tags[i]))
		}
	}
}

// bankAssocs are the associativities the differential tests cover: one
// word, partial words (padding lanes) and multi-word sets.
var bankAssocs = []int{1, 2, 3, 4, 5, 8, 12, 16, 32}

// TestBankMatchesRef is the tier-1 run of the differential check: 216
// seeds of 2,000 operations, over every associativity in bankAssocs and
// 1 to 256 sets.
func TestBankMatchesRef(t *testing.T) {
	const seeds, ops = 216, 2000
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		assoc := bankAssocs[int(seed)%len(bankAssocs)]
		sets := 1 << (seed / int64(len(bankAssocs)) % 9)
		p := newBankPair(sets, assoc, rng)
		for i := 0; i < ops; i++ {
			p.apply(t, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		for s := 0; s < sets; s++ {
			p.checkSet(t, s)
		}
	}
}

// FuzzBankVsRef checks the fingerprinted bank against the reference on
// arbitrary operation sequences, for 1 to 256 sets of 1 to 32 ways.
func FuzzBankVsRef(f *testing.F) {
	f.Add(uint8(3), uint8(15), int64(1), []byte{0, 1, 0, 2, 0, 3, 1, 4, 2, 1, 0, 1, 4, 9, 1, 5})
	f.Fuzz(func(t *testing.T, sets, assoc uint8, seed int64, ops []byte) {
		p := newBankPair(1<<(sets%9), 1+int(assoc%32), rand.New(rand.NewSource(seed)))
		for i := 0; i+1 < len(ops); i += 2 {
			p.apply(t, ops[i], ops[i+1])
		}
	})
}
