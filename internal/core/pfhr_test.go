package core

import (
	"math/rand"
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
)

// refPFHR is one register of refFile.
type refPFHR struct {
	free                       bool
	node                       dig.NodeID
	onTrig                     bool
	gen                        uint16
	trigAddr, lineAddr, bitmap uint64
}

// refFile is the linear-scan PFHR file the busy-bitmask pfhrFile
// replaced: a free flag per register and a full scan per operation.
type refFile []refPFHR

func newRefFile(n int) refFile {
	f := make(refFile, n)
	for i := range f {
		f[i].free = true
	}
	return f
}

// request is requestLine's register handling: merge into the busy
// register tracking (node, lineAddr), else allocate the first free one
// (released again when the memory system rejects the request), else
// report full.
func (f refFile) request(node dig.NodeID, onTrig bool, trigAddr, lineAddr, bitmap uint64, accept bool) (idx int, merged bool) {
	idx = -1
	for i := range f {
		r := &f[i]
		if r.free {
			if idx < 0 {
				idx = i
			}
			continue
		}
		if r.node == node && r.lineAddr == lineAddr {
			r.bitmap |= bitmap
			r.trigAddr = trigAddr
			return i, true
		}
	}
	if idx < 0 {
		return -1, false
	}
	f[idx] = refPFHR{node: node, onTrig: onTrig, gen: f[idx].gen, trigAddr: trigAddr, lineAddr: lineAddr, bitmap: bitmap}
	if !accept {
		f[idx].free = true
		f[idx].gen++
	}
	return idx, false
}

func (f refFile) drop(trigAddr uint64) {
	for i := range f {
		if r := &f[i]; !r.free && r.onTrig && r.trigAddr == trigAddr {
			r.free = true
			r.gen++
		}
	}
}

func (f refFile) fill(meta uint32) {
	idx, gen := unpackMeta(meta)
	if idx < len(f) && !f[idx].free && f[idx].gen == gen {
		f[idx].free = true
		f[idx].gen++
	}
}

// TestPFHRFileMatchesLinearScan drives a Prodigy instance's PFHR file
// through random alloc/merge/reject/drop/fill/pause sequences and checks
// every register against the linear-scan reference after each step, at
// file sizes on both sides of the 64-bit mask word.
func TestPFHRFileMatchesLinearScan(t *testing.T) {
	for _, size := range []int{1, 16, 64, 65, 300} {
		rng := rand.New(rand.NewSource(int64(size)))
		s := memspace.New()
		trig := s.AllocU32("trig", 8192)
		mid := s.AllocU32("mid", 8192)
		leaf := s.AllocU32("leaf", 64)
		for i := range trig.Data {
			trig.Data[i] = uint32(rng.Intn(len(leaf.Data)))
			mid.Data[i] = uint32(rng.Intn(len(leaf.Data)))
		}
		b := dig.NewBuilder()
		b.RegisterNode("trig", trig.BaseAddr, uint64(len(trig.Data)), 4, 0)
		b.RegisterNode("mid", mid.BaseAddr, uint64(len(mid.Data)), 4, 1)
		b.RegisterNode("leaf", leaf.BaseAddr, uint64(len(leaf.Data)), 4, 2)
		b.RegisterTravEdge(trig.BaseAddr, leaf.BaseAddr, dig.SingleValued)
		b.RegisterTravEdge(mid.BaseAddr, leaf.BaseAddr, dig.SingleValued)
		b.RegisterTrigEdge(trig.BaseAddr, dig.TriggerConfig{})
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		// Fills walk only into the leaf, whose requests are untracked, so
		// the file changes only through the operations below.
		accept := true
		var metas []uint32
		env := prefetch.Env{
			LineSize: 64,
			Probe:    func(uint64) cache.Level { return cache.LvlNone },
			Read:     s.ReadAt,
			IssueAt: func(_ uint64, meta uint32, _ cache.Level) bool {
				if meta == prefetch.UntrackedMeta {
					return true
				}
				if accept {
					metas = append(metas, meta)
				}
				return accept
			},
		}
		p := NewPrefetcher(env, d, Config{PFHREntries: size})
		ref := newRefFile(size)
		nodes := []*memspace.U32{trig, mid}
		// About twice as many (node, line) pairs as registers, so the file
		// fills up (every mask bit gets used) while merges stay common.
		lines, anchors := size+8, 32
		sawFull := false
		for step := 0; step < 2000+40*size; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // request: alloc, merge, full or MSHR reject
				k := rng.Intn(2)
				n := p.byID[dig.NodeID(k)]
				lineAddr := nodes[k].Addr(16 * rng.Intn(lines))
				trigAddr := trig.Addr(rng.Intn(anchors))
				bitmap := uint64(1) << rng.Intn(16)
				accept = rng.Intn(8) != 0
				p.requestLine(n, trigAddr, lineAddr, bitmap, 0, kindSingle)
				ref.request(n.id, n.trigger, trigAddr, lineAddr, bitmap, accept)
			case op < 7: // drop-on-catch-up
				trigAddr := trig.Addr(rng.Intn(anchors))
				p.dropSequence(trigAddr)
				ref.drop(trigAddr)
			case op < 9: // fill, possibly stale or repeated
				if len(metas) == 0 {
					continue
				}
				meta := metas[rng.Intn(len(metas))]
				p.OnFill(0, 0, meta, cache.LvlMem)
				ref.fill(meta)
			default: // deschedule or reschedule the thread
				if p.paused {
					p.Resume()
				} else {
					p.Pause()
				}
			}
			free := 0
			for i, r := range ref {
				got := &p.pfhr.regs[i]
				if p.pfhr.isBusy(i) == r.free || got.gen != r.gen {
					t.Fatalf("size %d step %d: register %d busy %v gen %d, reference free %v gen %d",
						size, step, i, p.pfhr.isBusy(i), got.gen, r.free, r.gen)
				}
				if r.free {
					free++
					continue
				}
				if got.node != r.node || got.onTrig != r.onTrig || got.trigAddr != r.trigAddr ||
					got.lineAddr != r.lineAddr || got.bitmap != r.bitmap {
					t.Fatalf("size %d step %d: register %d = %+v, reference %+v", size, step, i, *got, r)
				}
			}
			if p.FreePFHRs() != free {
				t.Fatalf("size %d step %d: FreePFHRs = %d, reference %d", size, step, p.FreePFHRs(), free)
			}
			sawFull = sawFull || free == 0
		}
		if !sawFull {
			t.Errorf("size %d: the file never filled up", size)
		}
	}
}
