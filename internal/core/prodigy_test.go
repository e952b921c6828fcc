package core

import (
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
)

// fakeEnv scripts the machine side: a functional memory, a resident-line
// set, and a queue of issued prefetches the test can "complete".
type fakeEnv struct {
	space    *memspace.Space
	resident map[uint64]bool // line addresses
	issued   []issuedReq
}

type issuedReq struct {
	addr uint64
	meta uint32
}

func (f *fakeEnv) env(core int) prefetch.Env {
	return prefetch.Env{
		Core:     core,
		LineSize: 64,
		Probe: func(addr uint64) cache.Level {
			if f.resident[addr/64] {
				return cache.LvlL1
			}
			return cache.LvlNone
		},
		Read: func(addr uint64) (uint64, bool) { return f.space.ReadAt(addr) },
		// Prodigy issues only through IssueAt.
		IssueAt: func(addr uint64, meta uint32, _ cache.Level) bool {
			f.issued = append(f.issued, issuedReq{addr, meta})
			return true
		},
	}
}

// completeAll delivers fills for all currently issued requests (marking
// the lines resident) and returns how many were delivered.
func (f *fakeEnv) completeAll(p *Prodigy) int {
	reqs := f.issued
	f.issued = nil
	for _, r := range reqs {
		f.resident[r.addr/64] = true
		p.OnFill(0, r.addr, r.meta, cache.LvlMem)
	}
	return len(reqs)
}

// bfsSetup builds a small BFS-shaped problem: workQ -> offsets (w0),
// offsets -> edges (w1), edges -> visited (w0).
type bfsSetup struct {
	f       *fakeEnv
	p       *Prodigy
	workQ   *memspace.U32
	offsets *memspace.U32
	edges   *memspace.U32
	visited *memspace.U32
	d       *dig.DIG
}

func newBFSSetup(t *testing.T, cfg Config, trigCfg dig.TriggerConfig) *bfsSetup {
	t.Helper()
	s := memspace.New()
	workQ := s.AllocU32("workQ", 64)
	offsets := s.AllocU32("offsets", 17)
	edges := s.AllocU32("edges", 64)
	visited := s.AllocU32("visited", 16)

	// 16 vertices, each with 4 neighbors.
	for i := 0; i <= 16; i++ {
		offsets.Data[i] = uint32(4 * i)
	}
	for i := range edges.Data {
		edges.Data[i] = uint32((i * 7) % 16)
	}
	for i := range workQ.Data {
		workQ.Data[i] = uint32(i % 16)
	}

	b := dig.NewBuilder()
	b.RegisterNode("workQ", workQ.BaseAddr, 64, 4, 0)
	b.RegisterNode("offsets", offsets.BaseAddr, 17, 4, 1)
	b.RegisterNode("edges", edges.BaseAddr, 64, 4, 2)
	b.RegisterNode("visited", visited.BaseAddr, 16, 4, 3)
	b.RegisterTravEdge(workQ.BaseAddr, offsets.BaseAddr, dig.SingleValued)
	b.RegisterTravEdge(offsets.BaseAddr, edges.BaseAddr, dig.Ranged)
	b.RegisterTravEdge(edges.BaseAddr, visited.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(workQ.BaseAddr, trigCfg)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	f := &fakeEnv{space: s, resident: map[uint64]bool{}}
	p := NewPrefetcher(f.env(0), d, cfg)
	return &bfsSetup{f: f, p: p, workQ: workQ, offsets: offsets, edges: edges, visited: visited, d: d}
}

func TestTriggerStartsSequences(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 2, NumSeqs: 4})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	if st.p.Stats.Triggers != 1 {
		t.Fatalf("triggers = %d", st.p.Stats.Triggers)
	}
	if st.p.Stats.SeqStarted != 4 {
		t.Fatalf("sequences = %d, want 4", st.p.Stats.SeqStarted)
	}
	// Sequences 2..5 live in workQ's first line: their requests merge into
	// one PFHR (one memory request), whose anchor tracks the newest
	// sequence. The workQ element's reactive advance stays quiet (its
	// out-edge is single-valued; reactive mode follows ranged edges only).
	var workQReqs, otherReqs int
	for _, req := range st.f.issued {
		if req.addr == st.workQ.Addr(0)/64*64 {
			workQReqs++
		} else {
			otherReqs++
		}
	}
	if workQReqs != 1 {
		t.Fatalf("workQ line requests = %d, want 1 (merged)", workQReqs)
	}
	if otherReqs != 0 {
		t.Fatalf("reactive requests = %d, want 0", otherReqs)
	}
	if st.p.FreePFHRs() != 15 {
		t.Fatalf("free PFHRs = %d, want 15", st.p.FreePFHRs())
	}
}

func TestFullWalkThroughDIG(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)

	// Level 1: the sequence's workQ line.
	if n := st.f.completeAll(st.p); n != 1 {
		t.Fatalf("level1 fills = %d, want 1", n)
	}
	if st.p.Stats.IssuedSingle == 0 {
		t.Fatal("no single-valued prefetches after workQ fill")
	}
	// Walk the remaining levels to exhaustion, recording every request.
	sawRanged, sawUntracked := false, false
	for round := 0; round < 8 && len(st.f.issued) > 0; round++ {
		for _, r := range st.f.issued {
			if r.meta == prefetch.UntrackedMeta {
				sawUntracked = true
				if !st.visited.Contains(r.addr) {
					t.Fatalf("untracked request outside visited: %#x", r.addr)
				}
			}
			if st.edges.Contains(r.addr) {
				sawRanged = true
			}
		}
		st.f.completeAll(st.p)
	}
	if st.p.Stats.IssuedRanged == 0 || !sawRanged {
		t.Fatal("no ranged expansion into edges")
	}
	if !sawUntracked {
		t.Fatal("leaf (visited) prefetches should be untracked")
	}
	// Leaf fills must not allocate PFHRs; after the walk drains all
	// registers are free.
	if free := st.p.FreePFHRs(); free != 16 {
		t.Fatalf("free PFHRs = %d, want 16", free)
	}
}

func TestDropOnCatchUp(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 16, NumSeqs: 1})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	if st.p.FreePFHRs() == 16 {
		t.Fatal("expected a busy PFHR")
	}
	// Sequence anchored at workQ[16]. Core catches up: demand to workQ[16].
	st.p.OnDemand(0, 1, st.workQ.Addr(16), cache.LvlMem)
	if st.p.Stats.SeqDropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.p.Stats.SeqDropped)
	}
	// The in-flight fill for the dropped sequence must be ignored
	// (generation guard) and must not advance the walk.
	before := st.p.Stats.IssuedSingle
	st.f.completeAll(st.p)
	// completeAll also delivers fills for the new trigger's sequences; only
	// check that the dropped PFHR didn't double-fire by ensuring free regs
	// eventually recover.
	_ = before
	st.f.completeAll(st.p)
	st.f.completeAll(st.p)
	st.f.completeAll(st.p)
	if free := st.p.FreePFHRs(); free != 16 {
		t.Fatalf("free PFHRs = %d, want 16 after draining", free)
	}
}

func TestGenerationGuardIgnoresStaleFill(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 16, NumSeqs: 1})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	var stale issuedReq
	found := false
	for _, req := range st.f.issued {
		if req.meta != prefetch.UntrackedMeta && st.workQ.Contains(req.addr) {
			stale = req
			found = true
		}
	}
	if !found {
		t.Fatalf("no tracked workQ request issued: %v", st.f.issued)
	}
	st.f.issued = nil
	// Drop the sequence while its request is in flight.
	st.p.OnDemand(0, 1, st.workQ.Addr(16), cache.LvlMem)
	issuedBefore := st.p.Stats.IssuedSingle
	st.p.OnFill(0, stale.addr, stale.meta, cache.LvlMem)
	if st.p.Stats.IssuedSingle != issuedBefore {
		t.Fatal("stale fill advanced a dropped sequence")
	}
}

func TestPFHRExhaustion(t *testing.T) {
	// With a single register, the ranged expansion into two edge-list
	// lines must drop its second line.
	st := newBFSSetup(t, Config{PFHREntries: 1, MaxRangedLines: 64}, dig.TriggerConfig{Lookahead: 16, NumSeqs: 8})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	st.f.completeAll(st.p) // workQ fills -> offsets requests need PFHRs
	st.f.completeAll(st.p) // offsets fills -> multiple edge-line requests
	if st.p.Stats.PFHRFull == 0 {
		t.Fatal("expected PFHR exhaustion with 1 register")
	}
}

func TestIssueStatsProvenance(t *testing.T) {
	// The IssueReporter view must attribute PFHR-pressure drops to the
	// prefetcher itself (DroppedInternal) and tie Requested to the
	// per-kind line counters, so the simulator's quality ledger can
	// separate internal drops from MSHR rejections it counts directly.
	st := newBFSSetup(t, Config{PFHREntries: 1, MaxRangedLines: 64}, dig.TriggerConfig{Lookahead: 16, NumSeqs: 8})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	st.f.completeAll(st.p)
	st.f.completeAll(st.p)
	is := st.p.IssueStats()
	if is.DroppedInternal == 0 {
		t.Fatal("PFHR-full drops not reported as DroppedInternal")
	}
	if want := st.p.Stats.LinesTrigger + st.p.Stats.LinesSingle + st.p.Stats.LinesRanged; is.Requested != want {
		t.Fatalf("Requested = %d, want %d (sum of line counters)", is.Requested, want)
	}
	if is.SkippedResident != st.p.Stats.ResidentSkipped {
		t.Fatalf("SkippedResident = %d, want %d", is.SkippedResident, st.p.Stats.ResidentSkipped)
	}
	// PFHRFull also counts Env.Issue rejections (MSHR-side); the internal
	// count can never exceed it.
	if is.DroppedInternal > st.p.Stats.PFHRFull {
		t.Fatalf("DroppedInternal %d > PFHRFull %d", is.DroppedInternal, st.p.Stats.PFHRFull)
	}
}

func TestResidentLinesAdvanceImmediately(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	// Make workQ fully resident: the trigger-node prefetch should skip
	// memory and advance straight to offsets.
	for a := st.workQ.BaseAddr / 64; a <= (st.workQ.Bound()-1)/64; a++ {
		st.f.resident[a] = true
	}
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	if st.p.Stats.ResidentSkipped == 0 {
		t.Fatal("resident line not skipped")
	}
	if st.p.Stats.IssuedSingle == 0 {
		t.Fatal("resident trigger line should advance synchronously")
	}
	for _, r := range st.f.issued {
		if !st.offsets.Contains(r.addr) {
			t.Fatalf("expected offsets request, got %#x", r.addr)
		}
	}
}

func TestRangedExpansionBounds(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	st.f.completeAll(st.p) // workQ -> offsets
	st.f.completeAll(st.p) // offsets -> edges
	// Every edge request must be inside the edges array.
	for _, r := range st.f.issued {
		if r.meta != prefetch.UntrackedMeta && !st.edges.Contains(r.addr) {
			t.Fatalf("tracked request outside edges: %#x", r.addr)
		}
	}
}

func TestRangedCap(t *testing.T) {
	// One vertex with a huge adjacency; MaxRangedLines must cap it.
	s := memspace.New()
	offsets := s.AllocU32("off", 3)
	edges := s.AllocU32("edges", 4096)
	// The sequence starts at element 1 (look-ahead 1); its ranged pair
	// (offsets[1], offsets[2]) spans the whole 4096-element edge array.
	offsets.Data[0], offsets.Data[1], offsets.Data[2] = 0, 0, 4096

	b := dig.NewBuilder()
	b.RegisterNode("off", offsets.BaseAddr, 3, 4, 0)
	b.RegisterNode("edges", edges.BaseAddr, 4096, 4, 1)
	b.RegisterTravEdge(offsets.BaseAddr, edges.BaseAddr, dig.Ranged)
	b.RegisterTrigEdge(offsets.BaseAddr, dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeEnv{space: s, resident: map[uint64]bool{}}
	p := NewPrefetcher(f.env(0), d, Config{PFHREntries: 16, MaxRangedLines: 4})
	p.OnDemand(0, 1, offsets.Addr(0), cache.LvlMem)
	f.completeAll(p) // offsets line fill -> ranged expansion (leaf edges)
	if len(f.issued) > 4 {
		t.Fatalf("ranged expansion issued %d lines, cap is 4", len(f.issued))
	}
	if len(f.issued) != 4 {
		t.Fatalf("ranged expansion issued %d lines, want exactly 4", len(f.issued))
	}
}

func TestDescendingTrigger(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 2, NumSeqs: 1, Descending: true})
	st.p.OnDemand(0, 1, st.workQ.Addr(40), cache.LvlMem)
	if st.p.Stats.SeqStarted != 1 {
		t.Fatalf("sequences = %d", st.p.Stats.SeqStarted)
	}
	wantLine := st.workQ.Addr(38) / 64 * 64
	foundSeq := false
	for _, req := range st.f.issued {
		if req.addr == wantLine {
			foundSeq = true
		}
	}
	if !foundSeq {
		t.Fatalf("no request for descending anchor line %#x: %v", wantLine, st.f.issued)
	}
	// Walking backwards: next trigger at 39 extends down to 37.
	st.f.issued = nil
	st.p.OnDemand(0, 1, st.workQ.Addr(39), cache.LvlMem)
	if st.p.Stats.SeqStarted != 2 {
		t.Fatalf("sequences = %d, want 2", st.p.Stats.SeqStarted)
	}
}

func TestRepeatedDemandSameElementNoRetrigger(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 2, NumSeqs: 2})
	st.p.OnDemand(0, 1, st.workQ.Addr(5), cache.LvlMem)
	trig := st.p.Stats.Triggers
	seqs := st.p.Stats.SeqStarted
	st.p.OnDemand(0, 1, st.workQ.Addr(5), cache.LvlL1)
	if st.p.Stats.Triggers != trig || st.p.Stats.SeqStarted != seqs {
		t.Fatal("same-element demand re-triggered")
	}
	// Advancing by one element triggers again but only extends the window
	// by one new sequence.
	st.p.OnDemand(0, 1, st.workQ.Addr(6), cache.LvlL1)
	if st.p.Stats.SeqStarted != seqs+1 {
		t.Fatalf("window extension started %d new sequences, want 1", st.p.Stats.SeqStarted-seqs)
	}
}

func TestNonTriggerDemandAdvancesReactively(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	// A demand to an offsets element (ranged out-edge) streams that
	// vertex's edge lines reactively ("reacts to demand accesses").
	st.p.OnDemand(0, 1, st.offsets.Addr(3), cache.LvlMem)
	if st.p.Stats.Triggers != 0 {
		t.Fatal("non-trigger access counted as trigger")
	}
	if len(st.f.issued) == 0 {
		t.Fatal("ranged reactive advance issued nothing")
	}
	for _, req := range st.f.issued {
		if !st.edges.Contains(req.addr) {
			t.Fatalf("reactive request %#x outside edges", req.addr)
		}
	}
	// Single-valued reactive advance stays quiet: the core demands the
	// target within a couple of instructions, so prefetching it cannot
	// help and only burns bandwidth.
	st.f.issued = nil
	st.p.OnDemand(0, 1, st.edges.Addr(3), cache.LvlMem)
	if len(st.f.issued) != 0 {
		t.Fatal("single-valued reactive advance issued requests")
	}
	// Demands to leaf nodes and unmapped addresses stay inert.
	st.p.OnDemand(0, 1, st.visited.Addr(2), cache.LvlMem)
	st.p.OnDemand(0, 1, 0xdeadbeef, cache.LvlMem)
	if len(st.f.issued) != 0 {
		t.Fatal("leaf/unmapped access caused activity")
	}
}

func TestDisableRangedAblation(t *testing.T) {
	st := newBFSSetup(t, Config{PFHREntries: 16, MaxRangedLines: 64, DisableRanged: true},
		dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	st.f.completeAll(st.p) // workQ -> offsets
	st.f.completeAll(st.p) // offsets fill: ranged disabled -> nothing
	if st.p.Stats.IssuedRanged != 0 {
		t.Fatal("ranged issued despite ablation")
	}
	if len(st.f.issued) != 0 {
		t.Fatalf("requests after offsets fill = %d, want 0", len(st.f.issued))
	}
}

func TestSingleSequenceAblation(t *testing.T) {
	st := newBFSSetup(t, Config{PFHREntries: 16, MaxRangedLines: 64, SingleSequence: true},
		dig.TriggerConfig{Lookahead: 4, NumSeqs: 4})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	if st.p.Stats.SeqStarted != 1 {
		t.Fatalf("single-sequence started %d", st.p.Stats.SeqStarted)
	}
	// No dropping in this mode.
	st.p.OnDemand(0, 1, st.workQ.Addr(4), cache.LvlMem)
	if st.p.Stats.SeqDropped != 0 {
		t.Fatal("single-sequence mode must not drop")
	}
}

func TestStatsRangedVsSingleFractions(t *testing.T) {
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 1, NumSeqs: 2})
	for i := 0; i < 8; i++ {
		st.p.OnDemand(0, 1, st.workQ.Addr(i), cache.LvlMem)
		st.f.completeAll(st.p)
		st.f.completeAll(st.p)
		st.f.completeAll(st.p)
	}
	if st.p.Stats.IssuedSingle == 0 || st.p.Stats.IssuedRanged == 0 {
		t.Fatalf("expected both indirection kinds: %+v", st.p.Stats)
	}
}

// TestPFHRMetaPackingWideIndex is the regression test for the 8-bit meta
// packing: with more than 256 PFHRs, index bits used to alias into the
// generation field and fills were routed to the wrong register. The
// packing is now 16-bit index / 16-bit generation.
func TestPFHRMetaPackingWideIndex(t *testing.T) {
	st := newBFSSetup(t, Config{PFHREntries: 300, MaxRangedLines: 64},
		dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	p := st.p
	if len(p.pfhr.regs) != 300 {
		t.Fatalf("PFHR file size = %d, want 300", len(p.pfhr.regs))
	}
	// Occupy a register above the old 8-bit index range and round-trip
	// its metadata. Pre-fix, idx 260 packed to 260&0xFF = 4.
	const idx = 260
	n := st.d.NodeContaining(st.workQ.Addr(0))
	p.pfhr.take(idx)
	p.pfhr.regs[idx].gen = 5
	p.pfhr.regs[idx].node = n.ID
	p.pfhr.regs[idx].lineAddr = st.workQ.Addr(0) / 64 * 64
	p.pfhr.regs[idx].bitmap = 1
	meta := p.meta(idx)
	gotIdx, gotGen := unpackMeta(meta)
	if gotIdx != idx || gotGen != 5 {
		t.Fatalf("meta round-trip = (%d, %d), want (%d, 5)", gotIdx, gotGen, idx)
	}
	if meta == prefetch.UntrackedMeta {
		t.Fatal("packed meta collides with UntrackedMeta")
	}
	// The fill must retire exactly register 260.
	p.OnFill(0, p.pfhr.regs[idx].lineAddr, meta, cache.LvlMem)
	if p.pfhr.isBusy(idx) {
		t.Fatal("fill did not retire the high-index PFHR")
	}
}

// TestPFHREntriesClamped pins the oversized-config guard: the index field
// has 16 bits, but 0xFFFF plus an all-ones generation would collide with
// prefetch.UntrackedMeta, so the file is clamped to 1<<15 entries.
func TestPFHREntriesClamped(t *testing.T) {
	st := newBFSSetup(t, Config{PFHREntries: 1 << 20, MaxRangedLines: 64},
		dig.TriggerConfig{Lookahead: 1, NumSeqs: 1})
	if len(st.p.pfhr.regs) != maxPFHREntries {
		t.Fatalf("PFHR file size = %d, want clamp at %d", len(st.p.pfhr.regs), maxPFHREntries)
	}
	// Even the top register's metadata must stay distinguishable.
	st.p.pfhr.regs[maxPFHREntries-1].gen = 0xFFFF
	if st.p.meta(maxPFHREntries-1) == prefetch.UntrackedMeta {
		t.Fatal("top register metadata collides with UntrackedMeta")
	}
}

func TestPauseResumeOSIntegration(t *testing.T) {
	// Section IV-F: prefetching pauses on thread descheduling; the DIG
	// tables and trigger progress survive, and prefetching resumes.
	st := newBFSSetup(t, DefaultConfig(), dig.TriggerConfig{Lookahead: 2, NumSeqs: 2})
	st.p.OnDemand(0, 1, st.workQ.Addr(0), cache.LvlMem)
	if len(st.f.issued) == 0 {
		t.Fatal("no activity before pause")
	}
	inFlight := st.f.issued
	st.f.issued = nil

	st.p.Pause()
	if !st.p.paused {
		t.Fatal("not paused")
	}
	st.p.OnDemand(0, 1, st.workQ.Addr(5), cache.LvlMem)
	if len(st.f.issued) != 0 {
		t.Fatal("paused prefetcher issued requests")
	}
	// Fills arriving while paused retire their PFHRs without walking.
	for _, r := range inFlight {
		st.f.resident[r.addr/64] = true
		st.p.OnFill(0, r.addr, r.meta, cache.LvlMem)
	}
	if len(st.f.issued) != 0 {
		t.Fatal("paused fill advanced the walk")
	}
	if st.p.FreePFHRs() != 16 {
		t.Fatalf("free PFHRs = %d, want 16 (fills must retire registers)", st.p.FreePFHRs())
	}

	st.p.Resume()
	st.p.OnDemand(0, 1, st.workQ.Addr(6), cache.LvlMem)
	if len(st.f.issued) == 0 {
		t.Fatal("resumed prefetcher stayed quiet")
	}
}
