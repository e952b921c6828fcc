// Package prefetch defines the hardware-prefetcher interface shared by
// Prodigy and the baseline prefetchers the paper compares against
// (Section VI-C): per-PC stride, GHB-based G/DC, IMP, Ainsworth & Jones'
// graph prefetcher, and DROPLET.
//
// A prefetcher instance is private to one core. It observes demand
// accesses to the L1D (OnDemand) and prefetch fills (OnFill), and issues
// requests through its Env.
package prefetch

import (
	"prodigy/internal/cache"
	"prodigy/internal/obs"
)

// UntrackedMeta is the Meta value for fire-and-forget prefetches whose
// fills need no further processing (leaf-node data).
const UntrackedMeta uint32 = 0xFFFFFFFF

// Env is the machine interface the simulator hands each prefetcher.
type Env struct {
	// Core is the owning core's index.
	Core int
	// LineSize is the cache line size in bytes.
	LineSize int
	// Probe reports where addr currently resides for this core without
	// disturbing cache state.
	Probe func(addr uint64) cache.Level
	// Read performs a functional read of the element at addr (hardware
	// reads prefetched data off the fill path; Section VI-E).
	Read func(addr uint64) (uint64, bool)
	// Issue enqueues a prefetch for the line containing addr. The fill —
	// whenever it completes — is reported back via OnFill with the same
	// meta. Issue never blocks; duplicate in-flight lines are merged by
	// the memory system. It returns false when the request was dropped
	// (per-core MSHR cap) and no fill will ever arrive — trackers must
	// release any state tied to the request.
	Issue func(addr uint64, meta uint32) bool
	// IssueAt is Issue for callers that already probed the line's level
	// this cycle (lvl must be the current Probe result and must not be
	// LvlL1): the memory system reuses it instead of probing again.
	// Probe-then-issue is the DIG walk's inner loop, so the saved scan
	// is measurable.
	IssueAt func(addr uint64, meta uint32, lvl cache.Level) bool
	// Obs is the simulation's observability recorder; nil (the common
	// case) disables instrumentation. Prefetchers may register counters
	// and gauges against it at construction and emit events during the
	// run — every recorder method is safe on a nil receiver.
	Obs *obs.Recorder
}

// IssueStats is a prefetcher's own account of what happened to the
// requests it wanted to make — the scheme-side half of the lifecycle
// telemetry (the memory-system half lives in sim.Stats). Every scheme
// that can decline or lose a request implements IssueReporter so the
// engine can fold these into the machine's prefetch-quality account.
type IssueStats struct {
	// Requested counts lines actually handed to Env.Issue.
	Requested uint64
	// SkippedResident counts requests elided because the probe found the
	// line already on chip (redundancy avoided before reaching the memory
	// system).
	SkippedResident uint64
	// DroppedInternal counts requests abandoned inside the prefetcher
	// before reaching Env.Issue — e.g. Prodigy's PFHR-full drops. MSHR-cap
	// drops are not included; the engine counts those itself.
	DroppedInternal uint64
}

// IssueReporter is implemented by prefetchers that account their issue
// provenance. The engine type-asserts for it when assembling per-core
// prefetch quality; schemes without it contribute zeros.
type IssueReporter interface {
	IssueStats() IssueStats
}

// StatsReporter is implemented by prefetchers that keep scheme-specific
// counters (e.g. Prodigy's core.Stats). SchemeStats returns a copy of
// them held by value: the engine stores it in the run's result, which
// must not keep the prefetcher itself, nor the machine and memory its
// Env closures capture, reachable after the run.
type StatsReporter interface {
	SchemeStats() any
}

// Prefetcher is a per-core hardware prefetcher.
type Prefetcher interface {
	// Name identifies the scheme in results tables.
	Name() string
	// OnDemand is called for every demand load/store/atomic the core
	// sends to the L1D, after the access is resolved; level is where it
	// was serviced. It runs once per memory instruction, so every
	// implementation is on the simulator's hot path.
	//
	//hot:path
	OnDemand(now int64, pc uint32, addr uint64, level cache.Level)
	// OnFill is called when a prefetch issued with meta completes;
	// level is where the memory system serviced it.
	//
	//hot:path
	OnFill(now int64, addr uint64, meta uint32, level cache.Level)
}

// Factory builds a prefetcher bound to a core's Env.
type Factory func(env Env) Prefetcher

// None returns the non-prefetching baseline.
func None() Factory {
	return func(Env) Prefetcher { return nonePrefetcher{} }
}

// nonePrefetcher is the no-op baseline: every demand access goes to the
// memory system unassisted.
type nonePrefetcher struct{}

func (nonePrefetcher) Name() string                                { return "none" }
func (nonePrefetcher) OnDemand(int64, uint32, uint64, cache.Level) {}
func (nonePrefetcher) OnFill(int64, uint64, uint32, cache.Level)   {}
