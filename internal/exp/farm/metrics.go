package farm

// Service telemetry for the farm (docs/SERVING.md §Service telemetry).
// Every site is nil-safe: a farm built without Config.Metrics pays one
// nil check per event and exports nothing. All of these metrics measure
// the service in host wall-clock time; none of them can perturb
// simulated results — the sweep NDJSON stays byte-identical with and
// without a registry attached (the restart byte-identity tests run both
// ways).

import (
	"strings"

	"prodigy/internal/obs"
	"prodigy/internal/telemetry"
)

// farmMetrics pre-resolves the farm's fixed-label metrics. Per-cause and
// per-algo×scheme children are resolved lazily at the event site (the
// registry returns the existing child on re-resolution).
type farmMetrics struct {
	reg *telemetry.Registry

	cellsCached    *telemetry.Counter
	cellsSimulated *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	queueDepth     *telemetry.Gauge
	inflight       *telemetry.Gauge
	activeSweeps   *telemetry.Gauge
	sweepsTotal    *telemetry.Counter
	errors         map[string]*telemetry.Counter

	stream obs.StreamMetrics
}

// newFarmMetrics registers the farm's metric families. A nil registry
// yields nil metrics whose methods no-op.
func newFarmMetrics(reg *telemetry.Registry) farmMetrics {
	errs := map[string]*telemetry.Counter{}
	for _, op := range errorOps {
		errs[op] = reg.Counter("farm_errors_total",
			"Farm failures, by operation: journal append or read, result-cache put, summary parse.",
			"op", op)
	}
	return farmMetrics{
		reg:    reg,
		errors: errs,
		cellsCached: reg.Counter("farm_cells_total",
			"Sweep cells completed, by how: cached replay or live simulation.",
			"state", "cached"),
		cellsSimulated: reg.Counter("farm_cells_total",
			"Sweep cells completed, by how: cached replay or live simulation.",
			"state", "simulated"),
		cacheHits: reg.Counter("farm_cache_hits_total",
			"Cells served from the durable result cache without simulating."),
		cacheMisses: reg.Counter("farm_cache_misses_total",
			"Cells that missed the durable result cache and had to simulate."),
		queueDepth: reg.Gauge("farm_queue_depth",
			"Cells accepted for simulation but not yet picked up by a worker."),
		inflight: reg.Gauge("farm_cells_inflight",
			"Cells currently simulating on the worker pool."),
		activeSweeps: reg.Gauge("farm_sweeps_active",
			"Sweeps accepted and not yet finished."),
		sweepsTotal: reg.Counter("farm_sweeps_total",
			"Sweeps accepted since boot."),
		stream: obs.StreamMetrics{
			Subscribers: reg.Gauge("stream_subscribers",
				"NDJSON stream subscribers currently attached across all sweeps."),
			Bytes: reg.Counter("stream_bytes_total",
				"NDJSON bytes streamed to subscribers (including newlines)."),
			ReplayLines: reg.Counter("stream_lines_total",
				"NDJSON lines streamed to subscribers, by phase: replayed history or live tail.",
				"phase", "replay"),
			TailLines: reg.Counter("stream_lines_total",
				"NDJSON lines streamed to subscribers, by phase: replayed history or live tail.",
				"phase", "tail"),
		},
	}
}

// errorOps are the operations farm_errors_total counts failures of.
var errorOps = []string{"journal", "journal_read", "store", "parse"}

// failed counts one failure of op (one of errorOps).
func (m *farmMetrics) failed(op string) { m.errors[op].Inc() }

// cellAborted counts one aborted cell under its typed cause (timeout,
// canceled, shutdown, max-cycles, deadlock, error).
func (m *farmMetrics) cellAborted(cause string) {
	m.reg.Counter("farm_cells_aborted_total",
		"Sweep cells that died without completing, by typed abort cause.",
		"cause", cause).Inc()
}

// cellWall records one completed cell's wall clock (µs) under its
// algo×scheme labels. label is the summary's "algo" or "algo-dataset".
func (m *farmMetrics) cellWall(label, scheme string, wallMS float64) {
	algo, _, _ := strings.Cut(label, "-")
	m.reg.Histogram("farm_cell_wall_us",
		"Wall-clock per completed (live-simulated) cell, microseconds.",
		"algo", algo, "scheme", scheme).Observe(int64(wallMS * 1000))
}
