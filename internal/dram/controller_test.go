package dram

import (
	"math/rand"
	"testing"
)

// ctrlPair drives the gap-encoded Controller and the slice-backed
// refController through the same operations and checks that they agree
// after every one.
type ctrlPair struct {
	c    *Controller
	ref  *refController
	now  int64
	step int64 // largest ordinary time step between operations
}

func newCtrlPair(si, lat, step int64) *ctrlPair {
	cfg := Config{AccessLat: lat, ServiceInterval: si}
	return &ctrlPair{c: New(cfg), ref: newRef(cfg), step: step}
}

// apply decodes one operation from two bytes: k picks the operation (low
// three bits) and how time moves before it (the rest), a is the
// operation's argument.
func (p *ctrlPair) apply(t testing.TB, k, a byte) {
	t.Helper()
	switch mode := k >> 3; {
	case mode < 26:
		p.now += int64(a) % (p.step + 1)
	case mode < 29:
		// Arrivals are not globally ordered: cores run on their own
		// clocks, so a request may arrive slightly in the past.
		p.now -= int64(a % 4)
	case mode < 31:
		p.now += int64(a) * 4
	default:
		// Jump past every booked slot: the queue drains.
		p.now = max(p.ref.pfFree, p.ref.demandTail) + int64(a%8)
	}
	switch k & 7 {
	case 0, 1:
		if got, want := p.c.Request(p.now), p.ref.Request(p.now); got != want {
			t.Fatalf("Request(%d) = %d, want %d", p.now, got, want)
		}
	case 2, 3:
		if got, want := p.c.RequestPrefetch(p.now), p.ref.RequestPrefetch(p.now); got != want {
			t.Fatalf("RequestPrefetch(%d) = %d, want %d", p.now, got, want)
		}
	case 4:
		p.c.Write(p.now)
		p.ref.Write(p.now)
	case 5:
		if got, want := p.c.Promote(p.now), p.ref.Promote(p.now); got != want {
			t.Fatalf("Promote(%d) = %d, want %d", p.now, got, want)
		}
	case 6:
		// Gauges are sampled at interval boundaries, which may lie
		// ahead of the requests still to come.
		cycle := p.now + int64(a%32)
		if got, want := p.c.queueDepth(cycle), p.ref.queueDepth(cycle); got != want {
			t.Fatalf("queue_depth(%d) = %v, want %v", cycle, got, want)
		}
	case 7:
		cycle := p.now + int64(a%32)
		if got, want := p.c.backlog(cycle), p.ref.backlog(cycle); got != want {
			t.Fatalf("backlog(%d) = %v, want %v", cycle, got, want)
		}
	}
	if p.c.Stats != p.ref.Stats {
		t.Fatalf("at %d: Stats = %+v, want %+v", p.now, p.c.Stats, p.ref.Stats)
	}
	if got, want := p.c.queued, int64(len(p.ref.lp)-p.ref.lpHead); got != want {
		t.Fatalf("at %d: queue depth = %d, want %d", p.now, got, want)
	}
	if p.c.pfFree != p.ref.pfFree || p.c.serviceEnd != p.ref.serviceEnd || p.c.demandTail != p.ref.demandTail {
		t.Fatalf("at %d: pfFree/serviceEnd/demandTail = %d/%d/%d, want %d/%d/%d", p.now,
			p.c.pfFree, p.c.serviceEnd, p.c.demandTail, p.ref.pfFree, p.ref.serviceEnd, p.ref.demandTail)
	}
}

// checkQueue checks the claim the run encoding rests on: the reference's
// queued slots start exactly one ServiceInterval apart and end at pfFree.
func (p *ctrlPair) checkQueue(t testing.TB) {
	t.Helper()
	si := p.c.cfg.ServiceInterval
	for i, start := range p.ref.lp[p.ref.lpHead:] {
		if want := p.c.head() + int64(i)*si; start != want {
			t.Fatalf("queued slot %d of %d starts at %d, want %d (ServiceInterval %d)",
				i, p.c.queued, start, want, si)
		}
	}
}

// FuzzControllerVsRef checks the gap-encoded queue against the slice
// controller it replaced on arbitrary interleavings of demands,
// prefetches, writebacks, promotions and gauge reads, for
// ServiceInterval 0–4.
func FuzzControllerVsRef(f *testing.F) {
	f.Add(uint8(2), uint8(120), uint8(1), []byte{2, 0, 2, 0, 2, 0, 0, 3, 0, 3, 6, 9, 250, 0})
	f.Fuzz(func(t *testing.T, si, lat, step uint8, ops []byte) {
		p := newCtrlPair(int64(si%5), int64(lat), int64(step%8))
		for i := 0; i+1 < len(ops); i += 2 {
			p.apply(t, ops[i], ops[i+1])
			p.checkQueue(t)
		}
	})
}

// TestControllerMatchesRef is the fixed-seed tier-1 run of the
// differential check: 300 seeds of 3,000 operations each. A third of the
// seeds move time slowly and never jump, so unless ServiceInterval is 0
// their low-priority backlogs grow to hundreds of slots, as on a
// paper-scale Prodigy run.
func TestControllerMatchesRef(t *testing.T) {
	const seeds, ops = 300, 3000
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		backlog := seed%3 == 0
		step := int64(rng.Intn(8))
		if backlog {
			step = int64(rng.Intn(2))
		}
		p := newCtrlPair(seed%5, int64(rng.Intn(200)), step)
		for i := 0; i < ops; i++ {
			k := byte(rng.Intn(256))
			if backlog {
				k = k&7 | byte(rng.Intn(29))<<3 // no jumps
			}
			p.apply(t, k, byte(rng.Intn(256)))
			if i%100 == 99 {
				p.checkQueue(t)
			}
		}
		p.checkQueue(t)
	}
}
