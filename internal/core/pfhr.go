package core

import (
	"math/bits"

	"prodigy/internal/dig"
)

// pfhr is one PreFetch status Handling Register (Fig. 9d). Whether it is
// allocated lives in its file's busy mask, not here.
type pfhr struct {
	node     dig.NodeID
	onTrig   bool   // node is a trigger node (drop-on-catch-up may free it)
	gen      uint16 // reuse guard for in-flight fills
	trigAddr uint64 // sequence identity: the trigger element's address
	lineAddr uint64 // outstanding prefetch line
	bitmap   uint64 // element offsets within the line still to process
}

// pfhrFile is the PFHR register file: the registers plus a busy bitmask,
// one bit per register, so scans visit only allocated registers and the
// first free one is a trailing-zero count. Bits at and above len(regs) in
// the last word stay clear and are never handed out.
type pfhrFile struct {
	regs []pfhr
	busy []uint64
}

func newPFHRFile(n int) pfhrFile {
	return pfhrFile{regs: make([]pfhr, n), busy: make([]uint64, (n+63)/64)}
}

// isBusy reports whether register i is allocated.
func (f *pfhrFile) isBusy(i int) bool { return f.busy[i>>6]&(1<<(i&63)) != 0 }

// take allocates register i (which must be free).
func (f *pfhrFile) take(i int) { f.busy[i>>6] |= 1 << (i & 63) }

// release frees register i and bumps its generation, so a fill still in
// flight for the old occupant is recognized as stale.
func (f *pfhrFile) release(i int) {
	f.busy[i>>6] &^= 1 << (i & 63)
	f.regs[i].gen++
}

// lookup is the one scan requestLine needs: the busy register tracking
// node's lineAddr (merge true), else the lowest-index free register, else
// -1 (the file is full).
func (f *pfhrFile) lookup(node dig.NodeID, lineAddr uint64) (idx int, merge bool) {
	idx = -1
	for wi, w := range f.busy {
		if idx < 0 && ^w != 0 {
			if i := wi<<6 + bits.TrailingZeros64(^w); i < len(f.regs) {
				idx = i
			}
		}
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if r := &f.regs[i]; r.node == node && r.lineAddr == lineAddr {
				return i, true
			}
		}
	}
	return idx, false
}

// dropAnchored releases every busy trigger-node register anchored at
// trigAddr and reports whether there was one.
func (f *pfhrFile) dropAnchored(trigAddr uint64) bool {
	dropped := false
	for wi, w := range f.busy {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if r := &f.regs[i]; r.onTrig && r.trigAddr == trigAddr {
				f.release(i)
				dropped = true
			}
		}
	}
	return dropped
}

// free returns the number of unallocated registers.
func (f *pfhrFile) free() int {
	n := len(f.regs)
	for _, w := range f.busy {
		n -= bits.OnesCount64(w)
	}
	return n
}
