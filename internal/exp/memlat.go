package exp

import (
	"fmt"

	"prodigy/internal/cache"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/sim"
	"prodigy/internal/stats"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// The memlat calibration sweep: one serialized pointer chase per
// hierarchy level, sized from the machine config so the warm-chase
// modal latency must equal the configured cumulative hit latency of the
// level it targets (Table I as a tested contract — see EXPERIMENTS.md
// and docs/SIMULATION.md). Any plateau off by even one cycle is a
// memory-model bug, not noise: the chase is fully serial and the
// permutations are deterministic.

// MemlatPoint is one calibration cell.
type MemlatPoint struct {
	// Name labels the point ("L1", "L2", "L3", "MEM", "TLB").
	Name string
	// Cfg is the workload the point runs.
	Cfg workloads.MemlatConfig
	// Expect is the modal per-access latency the machine config
	// predicts.
	Expect int64
}

// memlatLinesPerSet is the worst-case occupancy when n lines spread
// round-robin over a level's sets (both the contiguous chase footprint
// and the page-rotated TLB footprint map line i to set i mod sets).
func memlatLinesPerSet(n, size, assoc, lineSize int) int {
	sets := size / (lineSize * assoc)
	if sets <= 0 {
		sets = 1
	}
	return (n + sets - 1) / sets
}

// memlatResidency predicts where a chase over n distinct lines settles
// once warm: the first level whose per-set occupancy fits its
// associativity. A level that cannot hold its share thrashes completely
// — each set sees a fixed cyclic sequence of more distinct lines than
// ways, so LRU misses every access.
func memlatResidency(c cache.Config, n int) (cache.Level, int64) {
	if memlatLinesPerSet(n, c.L1Size, c.L1Assoc, c.LineSize) <= c.L1Assoc {
		return cache.LvlL1, int64(c.L1Lat)
	}
	if memlatLinesPerSet(n, c.L2Size, c.L2Assoc, c.LineSize) <= c.L2Assoc {
		return cache.LvlL2, int64(c.L2Lat)
	}
	if memlatLinesPerSet(n, c.L3Size, c.L3Assoc, c.LineSize) <= c.L3Assoc {
		return cache.LvlL3, int64(c.L3Lat)
	}
	return cache.LvlMem, 0
}

// memlatExpect predicts the warm modal latency of a chase over
// workingSet bytes under cfg: residency latency, plus the DRAM access
// when nothing holds the lines, plus the page walk when the page
// footprint exceeds the TLB.
func memlatExpect(cfg sim.Config, workingSet, nLines int) int64 {
	lvl, lat := memlatResidency(cfg.Cache, nLines)
	if lvl == cache.LvlMem {
		lat = int64(cfg.Cache.L3Lat) + cfg.DRAM.AccessLat
	}
	pages := (workingSet + memspace.PageSize - 1) / memspace.PageSize
	if memlatLinesPerSet(pages, cfg.TLB.Entries<<cfg.TLB.PageBits, cfg.TLB.Assoc, memspace.PageSize) > cfg.TLB.Assoc {
		lat += cfg.TLB.WalkLat
	}
	return lat
}

// MemlatPoints derives the calibration sweep from the machine config:
// one chase sized inside each cache level, one past the L3 (but inside
// the TLB reach), and the one-line-per-page TLB-thrash variant.
func MemlatPoints(cfg sim.Config) []MemlatPoint {
	c := cfg.Cache
	sizes := []struct {
		name string
		ws   int
		pat  string
	}{
		// Half a level's capacity: resident there, and (for L2/L3)
		// double the capacity of the level above, so per-set occupancy
		// exceeds the upper level's ways and thrashes it.
		{"L1", c.L1Size / 2, workloads.MemlatChase},
		{"L2", c.L2Size / 2, workloads.MemlatChase},
		{"L3", c.L3Size / 2, workloads.MemlatChase},
		// 1.5x the L3: every set over-committed, every access to DRAM.
		{"MEM", c.L3Size * 3 / 2, workloads.MemlatChase},
		// 1.5x the TLB reach, one line per page.
		{"TLB", cfg.TLB.Entries * 3 / 2 * memspace.PageSize, workloads.MemlatTLB},
	}
	var pts []MemlatPoint
	for _, s := range sizes {
		nLines := s.ws / c.LineSize
		if s.pat == workloads.MemlatTLB {
			nLines = s.ws / memspace.PageSize
		}
		pts = append(pts, MemlatPoint{
			Name: s.name,
			Cfg: workloads.MemlatConfig{
				Pattern:    s.pat,
				WorkingSet: s.ws,
				LineSize:   c.LineSize,
			},
			Expect: memlatExpect(cfg, s.ws, nLines),
		})
	}
	return pts
}

// MemlatResult is one executed calibration point.
type MemlatResult struct {
	Point MemlatPoint
	Hist  *stats.Histogram
	Row   obs.HistRow
	Res   sim.Result
}

// RunMemlatPoint chases one point on a serialized single-issue core
// (width 1, ROB 1: each load dispatches only after the previous one
// retires, so the recorded issue→ready latency is one access's true
// cost, not an overlapped one).
func RunMemlatPoint(p MemlatPoint, base sim.Config) (MemlatResult, error) {
	w, err := workloads.BuildMemlat(p.Cfg)
	if err != nil {
		return MemlatResult{}, err
	}
	cfg := base
	cfg.Cores = 1
	cfg.CPU.Width = 1
	cfg.CPU.ROBSize = 1
	cfg.Prefetcher = nil
	h := &stats.Histogram{}
	cfg.LatencyHook = func(core int, lat int64, lvl cache.Level) { h.Record(lat) }
	res, err := sim.Run(cfg, w.Space, trace.NewGen(1, 0), w.Run)
	if err != nil {
		return MemlatResult{}, fmt.Errorf("memlat %s: %w", p.Name, err)
	}
	if err := w.Verify(); err != nil {
		return MemlatResult{}, err
	}
	return MemlatResult{
		Point: p,
		Hist:  h,
		Row:   obs.NewHistRow(w.Name, p.Cfg.Pattern, p.Cfg.WorkingSet, p.Name, p.Expect, h),
		Res:   res,
	}, nil
}

// MemlatSweep runs every calibration point of MemlatPoints(base).
func MemlatSweep(base sim.Config) ([]MemlatResult, error) {
	var out []MemlatResult
	for _, p := range MemlatPoints(base) {
		r, err := RunMemlatPoint(p, base)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
