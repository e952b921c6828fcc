// Package sim is the multi-core timing engine: it connects per-core CPU
// models (internal/cpu), the cache hierarchy (internal/cache), the memory
// controller (internal/dram), per-core TLBs, and per-core prefetchers into
// one event-driven simulation over a workload's instruction streams.
//
// The engine is cycle-accurate at the level the paper's results need:
// loads resolve through the hierarchy with Table I latencies, prefetches
// are asynchronous events that fill the L1D on completion, demand accesses
// to in-flight prefetch lines merge (partial latency hiding), and barriers
// synchronize cores.
//
// Time is advanced by a wakeup scheduler, not a cycle stepper: Run keeps
// a per-core wakeup cycle plus a min-heap of pending prefetch fills,
// jumps the clock directly to the earliest of them, and at each visited
// cycle runs only the work due there — a core sleeping on a DRAM miss
// costs nothing until its fill returns. The time model (wakeup sources,
// same-cycle ordering and tie-breaks, determinism invariants, a worked
// load-lifetime example) is specified in docs/SIMULATION.md; the
// scheduler is cross-checked against a retained per-cycle reference
// loop in ref_test.go, which requires full-result equality on
// randomized workloads.
package sim

import (
	"errors"
	"fmt"

	"prodigy/internal/cache"
	"prodigy/internal/cpu"
	"prodigy/internal/dram"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/tlb"
	"prodigy/internal/trace"
)

// Sentinel abort causes. Run wraps these with cycle context; callers
// distinguish them with errors.Is — e.g. the experiment runner records
// whether a run died to its wall-clock watchdog (ErrInterrupted) or to
// the cycle limit (ErrMaxCycles).
var (
	// ErrInterrupted aborted the run because Config.Interrupt returned
	// true (typically a wall-clock timeout).
	ErrInterrupted = errors.New("interrupted")
	// ErrMaxCycles aborted the run at the Config.MaxCycles guard.
	ErrMaxCycles = errors.New("exceeded MaxCycles")
	// ErrDeadlock aborted the run because no core could make progress.
	ErrDeadlock = errors.New("deadlock")
)

// Config assembles a machine.
type Config struct {
	Cores int
	CPU   cpu.Config
	Cache cache.Config
	DRAM  dram.Config
	TLB   tlb.Config
	// Prefetcher builds each core's prefetcher; nil means no prefetching.
	Prefetcher prefetch.Factory
	// MaxCycles aborts runaway simulations; 0 means a large default.
	MaxCycles int64
	// PrefetchMSHRs caps outstanding prefetch lines per core (the
	// prefetch request queue; requests beyond the cap are dropped and the
	// issuer is told). 0 means the default of 128.
	PrefetchMSHRs int
	// MissHook, when set, is called with the byte address of every demand
	// access that missed the whole hierarchy (the Fig. 13 classifier).
	MissHook func(addr uint64)
	// PrefetchFillL2 places prefetch fills in the L2 instead of the L1D
	// (the fill-level ablation; the paper's design fills the L1D).
	PrefetchFillL2 bool
	// Interrupt, when set, is polled periodically during the run; returning
	// true aborts the simulation with ErrInterrupted, mirroring the
	// MaxCycles guard. The experiment runner uses it for per-run
	// wall-clock timeouts, since a simulation goroutine cannot be killed
	// from outside.
	Interrupt func() bool
	// Obs, when set, receives interval metrics and timeline events from
	// every component (see internal/obs). nil disables all
	// instrumentation; the hooks then cost one branch each.
	Obs *obs.Recorder
	// LedgerHook, when set, receives one record per completed prefetch
	// fill — the opt-in per-line issue→fill detail beyond the packed line
	// tag and the aggregate counters. The default (nil) costs one branch
	// per fill and allocates nothing.
	LedgerHook func(PFLineEvent)
	// LatencyHook, when set, receives every demand load's and atomic's
	// issue→ready latency in cycles (TLB walk + hierarchy + DRAM +
	// queueing, exactly the wait the wakeup scheduler charges the core)
	// together with the level that serviced it. Plain stores are skipped:
	// they drain through the store buffer at now+1 and say nothing about
	// memory latency. The latency-calibration suite (internal/exp memlat
	// sweep, docs/EXPERIMENTS.md) feeds a stats.Histogram from this. The
	// default (nil) costs one branch per access and never perturbs
	// timing.
	LatencyHook func(core int, lat int64, level cache.Level)
}

// PFLineEvent is one prefetched line's issue→fill record, delivered to
// Config.LedgerHook when per-line ledger detail is enabled.
type PFLineEvent struct {
	// Core is the issuing core.
	Core int
	// LineAddr is the byte address of the line start.
	LineAddr uint64
	// IssuedAt/FilledAt are the issue and completion cycles.
	IssuedAt, FilledAt int64
	// Level is where the memory system serviced the prefetch.
	Level cache.Level
	// DemandMerged reports that a demand reached the line while it was
	// still in flight (the "late" lifecycle class).
	DemandMerged bool
}

// Default returns the Table I machine (capacities scaled per DESIGN.md §2)
// with no prefetcher.
func Default(cores int) Config {
	return Config{
		Cores: cores,
		CPU:   cpu.DefaultConfig(),
		Cache: cache.ScaledDefault(cores),
		DRAM:  dram.Default(),
		TLB:   tlb.Default(),
	}
}

// Stats are engine-level counters.
type Stats struct {
	// PrefetchIssued counts prefetch requests sent to the memory system.
	PrefetchIssued uint64
	// PrefetchMergedResident counts issues that found the line already in
	// flight or resident and were absorbed.
	PrefetchMergedResident uint64
	// LateMerges counts demand accesses that hit a still-in-flight
	// prefetch line (the prefetch hid only part of the latency).
	LateMerges uint64
	// LateUsedFills counts prefetch fills that had been demanded while in
	// flight — each such fill is one "partially useful" prefetch (Fig. 15).
	LateUsedFills uint64
	// PrefetchMSHRFull counts prefetches dropped at the per-core
	// outstanding-request cap.
	PrefetchMSHRFull uint64
}

// PrefetchQuality is one core's prefetch-lifecycle account: every
// tracked line ends up timely (filled before its first demand use), late
// (a demand merged while it was in flight), evicted unused (the
// inaccurate class), redundant (absorbed by resident or in-flight
// state), or dropped (MSHR cap or scheme-internal pressure such as
// Prodigy's PFHR file). The derived accuracy/coverage/timeliness match
// the paper's evaluation axes (Section VI-C, Fig. 15/16).
type PrefetchQuality struct {
	// Scheme is the owning prefetcher's name.
	Scheme string `json:"scheme"`
	// Issued counts lines sent to the memory system; Fills the completed
	// installs (FillsMem the DRAM-serviced subset).
	Issued   uint64 `json:"issued"`
	Fills    uint64 `json:"fills"`
	FillsMem uint64 `json:"fills_mem"`
	// Timely lines were demanded after their fill completed; TimelyMem is
	// the DRAM-serviced subset (each one a converted demand miss).
	Timely    uint64 `json:"timely"`
	TimelyMem uint64 `json:"timely_mem"`
	// Late lines were demanded while still in flight (partial hiding);
	// LateMem is the DRAM-serviced subset.
	Late    uint64 `json:"late"`
	LateMem uint64 `json:"late_mem"`
	// EvictedUnused lines left the hierarchy without a demand use.
	EvictedUnused uint64 `json:"evicted_unused"`
	// Redundant counts requests absorbed without a new memory-system
	// transfer: merged with an in-flight line, found L1-resident at issue,
	// or probe-elided inside the scheme.
	Redundant uint64 `json:"redundant"`
	// Dropped counts requests that died before any fill: the engine's
	// per-core MSHR cap plus scheme-internal drops (PFHR pressure).
	Dropped uint64 `json:"dropped"`
	// DemandMisses counts the core's demand accesses serviced by DRAM —
	// the misses prefetching did not cover.
	DemandMisses uint64 `json:"demand_misses"`
}

// Accuracy is the fraction of completed fills that were demanded
// (timely or late) — the paper's "useful prefetches" (Fig. 15).
func (q *PrefetchQuality) Accuracy() float64 {
	if q.Fills == 0 {
		return 0
	}
	return float64(q.Timely+q.Late) / float64(q.Fills)
}

// Coverage is the fraction of would-be DRAM demand misses that a
// prefetch converted (fully or partially) — the Fig. 16 axis. Only
// DRAM-serviced fills count toward the numerator: a prefetch serviced
// on-chip never stood in for a DRAM miss.
func (q *PrefetchQuality) Coverage() float64 {
	covered := q.TimelyMem + q.LateMem
	if covered+q.DemandMisses == 0 {
		return 0
	}
	return float64(covered) / float64(covered+q.DemandMisses)
}

// Timeliness is the fraction of demanded prefetches that completed
// before their first use (timely vs. late).
func (q *PrefetchQuality) Timeliness() float64 {
	if q.Timely+q.Late == 0 {
		return 0
	}
	return float64(q.Timely) / float64(q.Timely+q.Late)
}

// Add folds another core's account into q (aggregate building). The
// scheme name is kept when consistent and marked mixed otherwise.
func (q *PrefetchQuality) Add(o PrefetchQuality) {
	if q.Scheme == "" {
		q.Scheme = o.Scheme
	} else if o.Scheme != "" && o.Scheme != q.Scheme {
		q.Scheme = "mixed"
	}
	q.Issued += o.Issued
	q.Fills += o.Fills
	q.FillsMem += o.FillsMem
	q.Timely += o.Timely
	q.TimelyMem += o.TimelyMem
	q.Late += o.Late
	q.LateMem += o.LateMem
	q.EvictedUnused += o.EvictedUnused
	q.Redundant += o.Redundant
	q.Dropped += o.Dropped
	q.DemandMisses += o.DemandMisses
}

// Result is everything an experiment needs from one run.
type Result struct {
	Cycles int64
	// Stacks holds each core's CPI accounting; Agg is their sum.
	Stacks []cpu.CPIStack
	Agg    cpu.CPIStack
	Cache  cache.Stats
	DRAM   dram.Stats
	Sim    Stats
	// Branches/Mispredicts aggregate the predictor counters.
	Branches, Mispredicts int64
	// TLBMissRate is the mean across cores.
	TLBMissRate float64
	// DRAMUtilization is the controller-pipe busy fraction (§VI-F).
	DRAMUtilization float64
	// SchemeStats holds each core's scheme-specific counters, copied out
	// of the prefetcher at the end of the run (prefetch.StatsReporter;
	// e.g. a core.Stats value for Prodigy). An entry is nil for schemes
	// without such counters. Callers type-assert for the scheme's type.
	SchemeStats []any
	// PFQ is the per-core prefetch-lifecycle quality; PFQAgg is the
	// machine-wide sum. Both are populated on clean and aborted runs.
	PFQ    []PrefetchQuality
	PFQAgg PrefetchQuality
}

// IPC returns retired instructions per cycle across all cores.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Agg.Retired) / float64(r.Cycles)
}

// pfEvent is a pending prefetch completion.
type pfEvent struct {
	ready        int64
	core         int
	lineAddr     uint64 // byte address of the line start
	level        cache.Level
	metas        []uint32
	demandMerged bool
	issuedAt     int64 // issue cycle (the per-line ledger's timestamp)
	idx          int   // heap index
	// flowID links the issue and fill timeline events (0 when tracing is
	// off).
	flowID uint64
}

// eventHeap is a min-heap of pending prefetch completions ordered by
// ready cycle. It is hand-rolled rather than built on container/heap:
// the interface-based version paid a dynamic dispatch per comparison on
// one of the simulator's hottest structures. Each event carries its heap
// index so a promotion (demand merging with an in-flight prefetch) can
// re-sift just that entry.
type eventHeap []*pfEvent

// siftUp moves the entry at i toward the root until its parent is no
// later.
func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].ready <= e.ready {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = e
	e.idx = i
}

// siftDown moves the entry at i toward the leaves until both children
// are no earlier.
func (h eventHeap) siftDown(i int) {
	e := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].ready < h[c].ready {
			c = r
		}
		if e.ready <= h[c].ready {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = e
	e.idx = i
}

// push inserts e.
func (h *eventHeap) push(e *pfEvent) {
	//lint:allow hotpath-alloc the event heap reaches steady-state capacity (bounded by total MSHRs); growth is amortized across the run
	*h = append(*h, e)
	(*h).siftUp(len(*h) - 1)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *pfEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	return top
}

// fix restores heap order after the entry at i changed its ready cycle.
func (h eventHeap) fix(i int) {
	h.siftUp(i)
	h.siftDown(i)
}

// pfTable is a fixed-size open-addressed hash table from line index to
// pending prefetch event (linear probing, backward-shift deletion). It
// replaces a Go map on the demand-access hot path: the table is sized to
// four slots per possible live entry (the MSHR cap bounds occupancy), so
// probes terminate almost immediately and no allocation ever happens
// after init. Keys are stored as lineIdx+1 so the zero value means
// "empty slot".
type pfTable struct {
	keys []uint64
	vals []*pfEvent
	mask uint64
}

// fibMult is the 64-bit Fibonacci hashing multiplier (2^64/phi).
const fibMult = 0x9E3779B97F4A7C15

func (t *pfTable) init(capacity int) {
	size := 4
	for size < 4*capacity {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.vals = make([]*pfEvent, size)
	t.mask = uint64(size - 1)
}

//hot:inline
func (t *pfTable) home(key uint64) uint64 {
	return (key * fibMult) & t.mask
}

// get returns the event indexed at lineIdx, or nil.
//
//hot:inline
func (t *pfTable) get(lineIdx uint64) *pfEvent {
	key := lineIdx + 1
	for i := t.home(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case key:
			return t.vals[i]
		case 0:
			return nil
		}
	}
}

// put inserts an event; lineIdx must not already be present (issuePrefetch
// merges with the existing event before inserting).
//
//hot:inline
func (t *pfTable) put(lineIdx uint64, ev *pfEvent) {
	key := lineIdx + 1
	i := t.home(key)
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = key
	t.vals[i] = ev
}

// del removes lineIdx (which must be present), back-shifting the probe
// chain so no tombstones accumulate.
func (t *pfTable) del(lineIdx uint64) {
	key := lineIdx + 1
	i := t.home(key)
	for t.keys[i] != key {
		i = (i + 1) & t.mask
	}
	for {
		t.keys[i] = 0
		t.vals[i] = nil
		j := i
		for {
			j = (j + 1) & t.mask
			if t.keys[j] == 0 {
				return
			}
			// Move j's entry into the hole unless its home slot lies
			// cyclically after the hole (in which case the chain from the
			// hole to j is still intact without it).
			if (j-t.home(t.keys[j]))&t.mask >= (j-i)&t.mask {
				t.keys[i] = t.keys[j]
				t.vals[i] = t.vals[j]
				i = j
				break
			}
		}
	}
}

// Machine is one assembled simulation instance: the cores, hierarchy,
// DRAM controller, TLBs and prefetchers built from one Config, plus the
// scheduler state Run drives them with (the fill event heap, per-core
// in-flight prefetch tables, and lifecycle tallies). A Machine is
// single-goroutine and single-use: build with NewMachine, drive with
// Run, read the returned Result. Nothing in it is shared between runs,
// which is what makes parallel experiment sweeps trivially safe (see
// docs/ARCHITECTURE.md).
type Machine struct {
	cfg   Config
	space *memspace.Space
	hier  *cache.Hierarchy
	mem   *dram.Controller
	tlbs  []*tlb.TLB
	pfs   []prefetch.Prefetcher
	cores []*cpu.Core

	now    int64
	events eventHeap
	// inflight indexes pending events by line index, one table per core:
	// an open-addressed table beats a Go map here because the lookup runs
	// on every demand access, and the live-entry count is bounded by the
	// per-core MSHR cap so the table stays sparse.
	inflight []pfTable
	// pfFree recycles completed pfEvents (and their metas backing arrays)
	// so steady-state prefetch traffic allocates nothing.
	pfFree []*pfEvent
	// inflightPerCore tracks outstanding prefetch lines against the MSHR
	// cap.
	inflightPerCore []int
	stats           Stats

	// Per-core lifecycle tallies for PrefetchQuality (plain uint64 slices:
	// the issue/merge paths are hot and must stay allocation-free).
	// lateLines counts each line's first in-flight merge (Stats.LateMerges
	// counts every merging demand); lateLinesMem the DRAM-serviced subset.
	pfIssuedPC    []uint64
	pfRedundantPC []uint64
	pfDroppedPC   []uint64
	lateLines     []uint64
	lateLinesMem  []uint64

	// Observability counter IDs and the prefetch flow-event sequence
	// (inert when cfg.Obs is nil).
	obsPFIssued    obs.CounterID
	obsLateMerge   obs.CounterID
	obsMSHRFull    obs.CounterID
	obsPFRedundant obs.CounterID
	pfFlowSeq      uint64
}

// NewMachine wires a machine to a functional memory and per-core
// instruction streams. An invalid configuration (e.g. a cache geometry
// whose set count is not a power of two) is reported as an error, so a
// bad sweep point fails as a run error instead of a worker panic.
func NewMachine(cfg Config, space *memspace.Space, gen *trace.Gen) (*Machine, error) {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	if cfg.PrefetchMSHRs == 0 {
		cfg.PrefetchMSHRs = 128
	}
	hier, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{
		cfg:   cfg,
		space: space,
		hier:  hier,
		mem:   dram.New(cfg.DRAM),
	}
	m.inflight = make([]pfTable, cfg.Cores)
	for c := range m.inflight {
		m.inflight[c].init(cfg.PrefetchMSHRs)
	}
	m.inflightPerCore = make([]int, cfg.Cores)
	m.pfIssuedPC = make([]uint64, cfg.Cores)
	m.pfRedundantPC = make([]uint64, cfg.Cores)
	m.pfDroppedPC = make([]uint64, cfg.Cores)
	m.lateLines = make([]uint64, cfg.Cores)
	m.lateLinesMem = make([]uint64, cfg.Cores)
	if cfg.Obs != nil {
		names := make([]string, len(cpu.StallKinds))
		for i, k := range cpu.StallKinds {
			names[i] = k.String()
		}
		cfg.Obs.Start(cfg.Cores, names, func() int64 { return m.now })
		// Lifecycle counters double as trace counter tracks (prefetch
		// quality over time in the timeline viewer).
		m.obsPFIssued = cfg.Obs.TrackCounter("sim.pf_issued")
		m.obsLateMerge = cfg.Obs.TrackCounter("sim.late_merge")
		m.obsMSHRFull = cfg.Obs.TrackCounter("sim.pf_mshr_full")
		m.obsPFRedundant = cfg.Obs.TrackCounter("sim.pf_redundant")
	}
	m.hier.Attach(cfg.Obs)
	m.mem.Attach(cfg.Obs)
	fac := cfg.Prefetcher
	if fac == nil {
		fac = prefetch.None()
	}
	for c := 0; c < cfg.Cores; c++ {
		tb, err := tlb.New(cfg.TLB)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		m.tlbs = append(m.tlbs, tb)
		core := c
		env := prefetch.Env{
			Core:     core,
			LineSize: cfg.Cache.LineSize,
			Probe:    func(addr uint64) cache.Level { return m.hier.Probe(core, addr) },
			Read:     func(addr uint64) (uint64, bool) { return space.ReadAt(addr) },
			Issue:    func(addr uint64, meta uint32) bool { return m.issuePrefetch(core, addr, meta) },
			IssueAt: func(addr uint64, meta uint32, lvl cache.Level) bool {
				return m.issuePrefetchAt(core, addr, meta, lvl)
			},
			Obs: cfg.Obs,
		}
		m.pfs = append(m.pfs, fac(env))
		memFn := func(now int64, in trace.Instr) (int64, cache.Level) {
			return m.demandAccess(core, now, in)
		}
		softFn := func(now int64, addr uint64) {
			m.now = now
			m.issuePrefetch(core, addr, prefetch.UntrackedMeta)
		}
		cc := cpu.New(cfg.CPU, gen.Reader(core), memFn, softFn)
		cc.AttachObs(cfg.Obs, core)
		m.cores = append(m.cores, cc)
	}
	return m, nil
}

// levelLat maps a service level to its cumulative hit latency.
//
//hot:inline
func (m *Machine) levelLat(lvl cache.Level) int64 {
	switch lvl {
	case cache.LvlL1:
		return int64(m.cfg.Cache.L1Lat)
	case cache.LvlL2:
		return int64(m.cfg.Cache.L2Lat)
	default:
		return int64(m.cfg.Cache.L3Lat)
	}
}

// memIssueAt composes the cycle at which a request that missed the
// whole hierarchy reaches the memory controller: translation plus the
// full L3 lookup. Every path that hands a request to DRAM — the demand
// miss, the in-flight-prefetch promotion, and the prefetch issue — must
// compose this identically, or the same physical access would be
// charged different latencies depending on which path won the race; the
// memlat calibration suite pins the sum (docs/SIMULATION.md).
//
//hot:inline
func (m *Machine) memIssueAt(now, tlbLat int64) int64 {
	return now + tlbLat + int64(m.cfg.Cache.L3Lat)
}

// demandAccess resolves one demand load/store/atomic and, when the
// opt-in LatencyHook is armed, reports the issue→ready latency of
// everything the core actually waits on (loads and atomics).
func (m *Machine) demandAccess(core int, now int64, in trace.Instr) (int64, cache.Level) {
	ready, lvl := m.demandResolve(core, now, in)
	if m.cfg.LatencyHook != nil && in.Kind != trace.Store {
		m.cfg.LatencyHook(core, ready-now, lvl)
	}
	return ready, lvl
}

// demandResolve is the hook-free body of demandAccess.
func (m *Machine) demandResolve(core int, now int64, in trace.Instr) (int64, cache.Level) {
	m.now = now
	addr := in.Addr
	tlbLat := m.tlbs[core].Translate(addr)
	write := in.Kind == trace.Store || in.Kind == trace.Atomic

	// Merge with an in-flight prefetch of the same line: the demand waits
	// for the outstanding fill instead of issuing its own request. The
	// occupancy counter gates the table probe so prefetch-less runs pay
	// one compare here.
	if m.inflightPerCore[core] != 0 {
		if ev := m.inflight[core].get(addr / uint64(m.cfg.Cache.LineSize)); ev != nil {
			if !ev.demandMerged {
				// First merge on this line: one "late" lifecycle outcome
				// (subsequent demands would have hit in cache either way).
				m.lateLines[core]++
				if ev.level == cache.LvlMem {
					m.lateLinesMem[core]++
				}
			}
			ev.demandMerged = true
			m.stats.LateMerges++
			m.cfg.Obs.Add(m.obsLateMerge, 1)
			var ready int64
			if in.Kind == trace.Store {
				// Plain stores drain through the store buffer: the core moves on
				// at once, exactly as on the DRAM-miss path below. The in-flight
				// prefetch already booked the line transfer, so no promotion and
				// no extra bandwidth; only atomics wait for the fill.
				ready = now + 1
			} else {
				// Promote the in-flight prefetch to demand priority (MSHR
				// promotion): a prefetch deep in the low-priority queue must not
				// make the demand wait longer than a fresh demand read would. The
				// line transfer is already booked, so no new bandwidth is consumed.
				if ev.level == cache.LvlMem {
					promoted := m.mem.Promote(m.memIssueAt(now, tlbLat))
					if promoted < ev.ready {
						ev.ready = promoted
						m.events.fix(ev.idx)
					}
				}
				base := ev.ready
				if base < now {
					base = now
				}
				ready = base + tlbLat + int64(m.cfg.Cache.L1Lat)
			}
			m.pfs[core].OnDemand(now, in.PC, addr, ev.level)
			return ready, ev.level
		}
	}

	res := m.hier.Access(core, addr, write)
	if res.Level == cache.LvlMem && m.cfg.MissHook != nil {
		m.cfg.MissHook(addr)
	}
	var ready int64
	if res.Level == cache.LvlMem {
		// On a full miss res.Lat is the whole-hierarchy traversal, i.e.
		// L3Lat — the same composition as the promote and prefetch paths.
		done := m.mem.Request(m.memIssueAt(now, tlbLat))
		if in.Kind == trace.Store {
			// Plain stores drain through the store buffer; the core does
			// not wait, but the bandwidth was consumed above.
			ready = now + 1
		} else {
			ready = done
		}
	} else {
		ready = now + tlbLat + int64(res.Lat)
	}
	m.pfs[core].OnDemand(now, in.PC, addr, res.Level)
	return ready, res.Level
}

// lvlUnprobed is issuePrefetchAt's "caller did not probe" sentinel
// (outside every real cache.Level value).
const lvlUnprobed = cache.Level(0xFF)

// issuePrefetch enqueues a prefetch for core. Requests to resident or
// already-in-flight lines are merged. It returns false only when the
// request was dropped at the MSHR cap (no fill will arrive).
//
//hot:inline
func (m *Machine) issuePrefetch(core int, addr uint64, meta uint32) bool {
	return m.issuePrefetchAt(core, addr, meta, lvlUnprobed)
}

// issuePrefetchAt is issuePrefetch with the caller's own probe result
// (Env.IssueAt): probed levels other than the sentinel skip the
// hierarchy probe. Nothing can move the line between the caller's probe
// and this call, so reusing the level is exact.
func (m *Machine) issuePrefetchAt(core int, addr uint64, meta uint32, probed cache.Level) bool {
	line := uint64(m.cfg.Cache.LineSize)
	lineAddr := addr / line * line
	if ev := m.inflight[core].get(lineAddr / line); ev != nil {
		if meta != prefetch.UntrackedMeta && !containsMeta(ev.metas, meta) {
			// Duplicate metas would deliver duplicate OnFill callbacks for
			// one physical fill, letting fill-cascading prefetchers
			// multiply their own triggers combinatorially.
			//lint:allow hotpath-alloc metas keeps its backing array across pool recycling (processEvents truncates to len 0), so append reallocates only during warm-up
			ev.metas = append(ev.metas, meta)
		}
		m.stats.PrefetchMergedResident++
		m.pfRedundantPC[core]++
		m.cfg.Obs.Add(m.obsPFRedundant, 1)
		return true
	}
	lvl := probed
	if lvl == lvlUnprobed {
		lvl = m.hier.Probe(core, addr)
	}
	if lvl == cache.LvlL1 {
		// Already as close as a prefetch can put it.
		m.stats.PrefetchMergedResident++
		m.pfRedundantPC[core]++
		m.cfg.Obs.Add(m.obsPFRedundant, 1)
		if meta != prefetch.UntrackedMeta {
			m.pfs[core].OnFill(m.now, lineAddr, meta, lvl)
		}
		return true
	}
	if m.inflightPerCore[core] >= m.cfg.PrefetchMSHRs {
		m.stats.PrefetchMSHRFull++
		m.pfDroppedPC[core]++
		m.cfg.Obs.Add(m.obsMSHRFull, 1)
		return false
	}
	tlbLat := m.tlbs[core].Translate(addr)
	var ready int64
	var level cache.Level
	if lvl == cache.LvlNone {
		ready = m.mem.RequestPrefetch(m.memIssueAt(m.now, tlbLat))
		level = cache.LvlMem
	} else {
		ready = m.now + tlbLat + m.levelLat(lvl)
		level = lvl
	}
	var ev *pfEvent
	if n := len(m.pfFree); n > 0 {
		ev = m.pfFree[n-1]
		m.pfFree[n-1] = nil
		m.pfFree = m.pfFree[:n-1]
		ev.ready, ev.core, ev.lineAddr, ev.level = ready, core, lineAddr, level
	} else {
		//lint:allow hotpath-alloc pool refill: one allocation per steady-state MSHR slot, recycled through pfFree for the rest of the run
		ev = &pfEvent{ready: ready, core: core, lineAddr: lineAddr, level: level}
	}
	if meta != prefetch.UntrackedMeta {
		//lint:allow hotpath-alloc metas keeps its backing array across pool recycling, so append reallocates only during warm-up
		ev.metas = append(ev.metas, meta)
	}
	ev.issuedAt = m.now
	m.events.push(ev)
	m.inflight[core].put(lineAddr/line, ev)
	m.inflightPerCore[core]++
	m.stats.PrefetchIssued++
	m.pfIssuedPC[core]++
	if m.cfg.Obs != nil {
		m.cfg.Obs.Add(m.obsPFIssued, 1)
		m.pfFlowSeq++
		ev.flowID = m.pfFlowSeq
		m.cfg.Obs.FlowBegin(core, ev.flowID, "prefetch", "pf")
	}
	return true
}

//hot:inline
func containsMeta(metas []uint32, m uint32) bool {
	for _, x := range metas {
		if x == m {
			return true
		}
	}
	return false
}

// processEvents completes every prefetch due at or before now.
func (m *Machine) processEvents(now int64) {
	for len(m.events) > 0 && m.events[0].ready <= now {
		ev := m.events.popMin()
		m.inflight[ev.core].del(ev.lineAddr / uint64(m.cfg.Cache.LineSize))
		m.inflightPerCore[ev.core]--
		m.now = now
		if m.cfg.PrefetchFillL2 {
			m.hier.FillPrefetchL2(ev.core, ev.lineAddr, ev.level)
		} else {
			m.hier.FillPrefetch(ev.core, ev.lineAddr, ev.level)
		}
		if ev.demandMerged {
			// The demand already consumed this line; count the prefetch as
			// used so Fig. 15 doesn't misclassify it as evicted-unused.
			m.hier.TouchUsed(ev.core, ev.lineAddr)
			m.stats.LateUsedFills++
		}
		if ev.flowID != 0 {
			m.cfg.Obs.FlowEnd(ev.core, ev.flowID, "prefetch", "pf")
		}
		if m.cfg.LedgerHook != nil {
			//hot:noescape
			m.cfg.LedgerHook(PFLineEvent{Core: ev.core, LineAddr: ev.lineAddr,
				IssuedAt: ev.issuedAt, FilledAt: now, Level: ev.level,
				DemandMerged: ev.demandMerged})
		}
		for _, meta := range ev.metas {
			m.pfs[ev.core].OnFill(now, ev.lineAddr, meta, ev.level)
		}
		// Recycle only after the OnFill callbacks: they may issue new
		// prefetches, which draw from the same pool. metas keeps its
		// backing array so re-use appends without allocating.
		ev.metas = ev.metas[:0]
		ev.demandMerged = false
		ev.flowID = 0
		//lint:allow hotpath-alloc pool return; the free list's capacity is bounded by the steady-state event population
		m.pfFree = append(m.pfFree, ev)
	}
}

// interruptPollMask throttles Interrupt polling to every 64th scheduling
// iteration (with a poll on the very first one, so an already-expired
// deadline aborts before any work).
const interruptPollMask = 63

// farFuture is the scheduler's "never" sentinel: a core whose wakeup is
// farFuture is done or parked at a barrier and is skipped until an
// external event (barrier release) re-arms it. It matches the sentinel
// cpu.Core.Step returns.
const farFuture = int64(1) << 62

// collect assembles the Result as of cycle now: it closes each core's CPI
// attribution at now and snapshots every component's counters. Both the
// clean-completion and abort paths use it, so an aborted run still reports
// cycles-so-far and per-core retired counts instead of an empty Result.
//
//hot:cold
func (m *Machine) collect(now int64) Result {
	res := Result{Cycles: now, SchemeStats: make([]any, len(m.pfs))}
	var tlbMiss float64
	for i, c := range m.cores {
		c.FinishAt(now)
		res.Stacks = append(res.Stacks, c.Stack)
		res.Agg.Add(c.Stack)
		res.Branches += c.Branches
		res.Mispredicts += c.Mispredicts
		tlbMiss += m.tlbs[i].MissRate()
	}
	res.TLBMissRate = tlbMiss / float64(len(m.cores))
	res.Cache = m.hier.Stats
	res.DRAM = m.mem.Stats
	res.Sim = m.stats
	res.DRAMUtilization = m.mem.Utilization(now)
	res.PFQ = make([]PrefetchQuality, len(m.cores))
	for c := range m.cores {
		q := &res.PFQ[c]
		q.Scheme = m.pfs[c].Name()
		q.Issued = m.pfIssuedPC[c]
		q.Late = m.lateLines[c]
		q.LateMem = m.lateLinesMem[c]
		q.Redundant = m.pfRedundantPC[c]
		q.Dropped = m.pfDroppedPC[c]
		life := m.hier.Life[c]
		q.Fills = life.Fills
		q.FillsMem = life.FillsMem
		q.Timely = life.Timely
		q.TimelyMem = life.TimelyMem
		q.EvictedUnused = life.EvictedUnused
		q.DemandMisses = life.DemandMisses
		// Fold in provenance the prefetcher itself tracked: probe-elided
		// requests are redundant work avoided, internal drops (e.g. a full
		// PFHR file) never reached issuePrefetch so the MSHR counter above
		// cannot see them.
		if ir, ok := m.pfs[c].(prefetch.IssueReporter); ok {
			is := ir.IssueStats()
			q.Redundant += is.SkippedResident
			q.Dropped += is.DroppedInternal
		}
		if sr, ok := m.pfs[c].(prefetch.StatsReporter); ok {
			res.SchemeStats[c] = sr.SchemeStats()
		}
		res.PFQAgg.Add(*q)
	}
	return res
}

// abort closes out an aborted run: partial results up to now, plus the
// wrapped sentinel so callers can classify the cause with errors.Is.
//
//hot:cold
func (m *Machine) abort(now int64, err error) (Result, error) {
	// Collect first: FinishAt attributes each core's stall tail, which the
	// recorder's final intervals must still see.
	res := m.collect(now)
	_ = m.cfg.Obs.Finish(now)
	return res, err
}

// Run drives the machine to completion and returns the results. On abort
// (ErrInterrupted, ErrMaxCycles, ErrDeadlock) the Result still carries the
// progress made so far — cycles, per-core CPI stacks, component stats.
//
// Run is an event-driven wakeup scheduler, not a cycle stepper: time
// advances directly to the earliest pending wakeup, and at each visited
// cycle only the work due there runs. The wakeup sources, their ordering
// within one cycle, and the determinism invariants are specified in
// docs/SIMULATION.md; the stepped reference loop it replaced survives as
// the cross-check oracle in ref_test.go. The visited cycle sequence and
// every simulation outcome (cycle counts, CPI stacks, component stats,
// prefetch lifecycle) are identical to the stepped loop's: a core's Step
// before its reported wakeup is a provable no-op, so skipping it changes
// nothing but wall-clock time.
//
//hot:path
func (m *Machine) Run() (Result, error) {
	now := int64(0)
	nCores := len(m.cores)
	// wake[i] is core i's next due cycle; farFuture while the core is done
	// or parked at a barrier. All cores are due at cycle 0.
	//lint:allow hotpath-alloc per-run setup: one slice per Run call, not per cycle
	wake := make([]int64, nCores)
	// doneCores/parkedCores count the cores whose wake is farFuture, split
	// by cause. Transitions happen only inside a core's own Step (or the
	// barrier release below), so the counters replace the per-iteration
	// all-core scans of the stepped loop.
	doneCores, parkedCores := 0, 0

	// Interval-metrics boundary: the first cycle at which an interval
	// completes and must be flushed. Sleeping cores have not attributed
	// their stall time yet, so each flush is preceded by an attribution
	// sweep — that keeps interval rows byte-identical to the stepped
	// loop's even when one wakeup leaps across several boundaries.
	interval := m.cfg.Obs.Interval()
	nextFlush := farFuture
	if interval > 0 {
		nextFlush = interval
	}

	for iter := 0; ; iter++ {
		if m.cfg.Interrupt != nil && iter&interruptPollMask == 0 && m.cfg.Interrupt() {
			//lint:allow hotpath-alloc abort path: runs at most once per run
			return m.abort(now, fmt.Errorf("sim: %w at cycle %d", ErrInterrupted, now))
		}
		// Prefetch fills due at or before now install before any core runs
		// at now, so a demand access this cycle sees them.
		m.processEvents(now)
		m.now = now

		// Barrier release: if every unfinished core is parked, unpark them
		// and make them due this cycle.
		if parkedCores > 0 && parkedCores+doneCores == nCores {
			for i, c := range m.cores {
				if c.AtBarrier() {
					c.ReleaseBarrier()
					wake[i] = now
				}
			}
			parkedCores = 0
		}

		// Step the due cores in core-index order (the tie-break that keeps
		// shared cache/DRAM state evolution deterministic).
		for i, c := range m.cores {
			if wake[i] > now {
				continue
			}
			n := c.Step(now)
			wake[i] = n
			if n >= farFuture {
				// The core left the schedule: it either retired its whole
				// stream or parked at a barrier.
				if c.Done() {
					doneCores++
				} else {
					parkedCores++
				}
			}
		}

		if nextFlush <= now {
			// One or more interval boundaries were crossed: attribute every
			// core's pending stall span up to now, then flush the completed
			// intervals.
			for _, c := range m.cores {
				c.AttributeUpTo(now)
			}
			m.cfg.Obs.Tick(now)
			nextFlush = (now/interval + 1) * interval
		}
		if doneCores == nCores {
			break
		}

		// Pick the next wakeup: the earliest core wakeup or prefetch fill,
		// or the next cycle when a barrier release is pending.
		next := farFuture
		if parkedCores > 0 && parkedCores+doneCores == nCores {
			next = now + 1
		} else {
			for _, w := range wake {
				if w < next {
					next = w
				}
			}
			if len(m.events) > 0 && m.events[0].ready < next {
				next = m.events[0].ready
			}
			if next <= now {
				next = now + 1
			}
			if next >= farFuture {
				// All cores claim no progress is possible but none are done.
				//lint:allow hotpath-alloc abort path: runs at most once per run
				return m.abort(now, fmt.Errorf("sim: %w at cycle %d", ErrDeadlock, now))
			}
		}
		now = next
		if now > m.cfg.MaxCycles {
			//lint:allow hotpath-alloc abort path: runs at most once per run
			return m.abort(now, fmt.Errorf("sim: %w (limit %d)", ErrMaxCycles, m.cfg.MaxCycles))
		}
	}

	res := m.collect(now)
	// FinishAt attributed every core's tail; flush the remaining intervals
	// and close the trace. Export failures (e.g. a full disk) surface as
	// run errors — silently truncated metrics would be worse.
	if ferr := m.cfg.Obs.Finish(now); ferr != nil {
		//lint:allow hotpath-alloc teardown path: runs at most once per run
		return res, fmt.Errorf("sim: observability export: %w", ferr)
	}
	return res, nil
}

// Run assembles a machine and runs a workload generator to completion. The
// producer emits instruction streams into gen while the machine consumes
// them.
func Run(cfg Config, space *memspace.Space, gen *trace.Gen, producer func(*trace.Gen)) (Result, error) {
	m, err := NewMachine(cfg, space, gen)
	if err != nil {
		// Close any attached trace/metrics writers so a construction failure
		// still leaves valid (if empty) output files behind.
		_ = cfg.Obs.Finish(0)
		return Result{}, err
	}
	wait := gen.Run(producer)
	res, err := m.Run()
	// Unblock the producer if the machine stopped early (error, interrupt):
	// it cannot be killed, so it runs to completion against a closed sink.
	// On a clean finish the streams are already closed and this is a no-op.
	gen.Abort()
	if perr := wait(); perr != nil && err == nil {
		res, err = Result{}, perr
	}
	return res, err
}
