// Package obs is the simulation observability layer: a counter/gauge
// registry with interval sampling (per-core CPI-stack slices, cache miss
// rates, DRAM busy fraction and queue depth, PFHR occupancy, ...) emitted
// as JSONL, a Chrome trace-event (catapult JSON) timeline exporter
// whose output opens directly in chrome://tracing or Perfetto, a per-line
// prefetch ledger (JSONL), and a demand latency histogram.
//
// Every hook goes through a nil-checkable *Recorder: a nil receiver makes
// each call a single branch, so fully-disabled instrumentation costs one
// predictable compare per hook and perturbs nothing. The recorder is
// driven entirely by simulated cycles — it never reads the wall clock —
// so two identical runs produce byte-identical metrics and traces.
//
// Wiring: the simulation engine calls Start once at machine assembly,
// components register counters/gauges while attaching, the engine calls
// Snapshot before each interval boundary's work and Tick after it
// (flushing every interval whose cycles are fully attributed), and Finish
// flushes the tail and the trace footer. See docs/OBSERVABILITY.md for
// the CLI flags and a trace-viewer walkthrough.
package obs

import (
	"encoding/json"
	"io"
	"slices"
	"strconv"

	"prodigy/internal/stats"
)

// DefaultInterval is the metrics sampling period in cycles when Options
// leaves it unset.
const DefaultInterval = 10000

// Options configures a Recorder. Any writer may be nil to disable that
// output; New with all of them nil still returns a usable recorder that
// keeps only the demand latency histogram (see Latencies).
type Options struct {
	// Interval is the metrics sampling period in simulated cycles
	// (default DefaultInterval).
	Interval int64
	// Metrics receives one JSON object per interval (JSONL).
	Metrics io.Writer
	// Trace receives the catapult trace-event JSON stream.
	Trace io.Writer
	// Ledger receives one JSON object per completed prefetch fill
	// (JSONL): the per-line prefetch lifecycle ledger.
	Ledger io.Writer
}

// CounterID names a counter booked with AddAt. -1 (returned by
// registration on a nil or sealed recorder) is safely ignored by AddAt.
type CounterID int32

// source is one CounterFunc registration: fn reads an always-on
// statistic, and last is its value at the previous Snapshot.
type source struct {
	id   CounterID
	fn   func() uint64
	last uint64
}

// gauge is a registered sampling callback.
type gauge struct {
	name string
	fn   func(cycle int64) float64
}

// spanState coalesces consecutive same-class stall chunks into one
// timeline span per core.
type spanState struct {
	class      int
	start, end int64
	open       bool
}

// bucket accumulates one interval's deltas.
type bucket struct {
	cpi      [][]int64 // [core][class] attributed cycles
	counters []uint64
}

// Recorder collects interval metrics and timeline events for one
// simulation. All methods are safe on a nil receiver (no-ops), which is
// the disabled path. A Recorder is single-run and not safe for concurrent
// use — exactly like the simulation engine that drives it.
type Recorder struct {
	interval int64
	metrics  io.Writer
	tw       *traceWriter
	clock    func() int64

	cores   int
	classes []string

	names   []string
	index   map[string]CounterID
	sources []source
	gauges  []gauge
	sealed  bool
	// tracked lists the counters additionally exported as Chrome counter
	// tracks ("C" events) at each interval flush. A slice, not a map: the
	// emission order must be deterministic (registration order).
	tracked []CounterID

	// next is the next interval index to flush; buckets[i] covers
	// interval next+i (nil entries are all-zero intervals).
	next    int64
	buckets []*bucket

	spans []spanState
	err   error

	ledger *json.Encoder
	// lat counts demand load/atomic latencies; Record never allocates.
	lat stats.Histogram
}

// New builds a Recorder from opts. Returns a non-nil recorder; pass a nil
// *Recorder wherever instrumentation should be disabled entirely.
func New(opts Options) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	r := &Recorder{
		interval: opts.Interval,
		metrics:  opts.Metrics,
		index:    map[string]CounterID{},
	}
	if opts.Trace != nil {
		r.tw = newTraceWriter(opts.Trace)
	}
	if opts.Ledger != nil {
		r.ledger = json.NewEncoder(opts.Ledger)
	}
	return r
}

// Interval returns the metrics sampling period in cycles (0 on a nil
// recorder).
func (r *Recorder) Interval() int64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// Start configures the run topology: core count, stall-class display
// names (the CPI-stack categories), and the simulated-cycle clock used by
// hooks that have no explicit cycle at hand. The engine calls this once
// at machine assembly, before components register counters.
func (r *Recorder) Start(cores int, stallClasses []string, clock func() int64) {
	if r == nil {
		return
	}
	r.cores = cores
	r.classes = append([]string(nil), stallClasses...)
	r.clock = clock
	r.spans = make([]spanState, cores)
	if r.tw != nil {
		r.tw.event(traceEvent{Ph: "M", Pid: 0, Name: "process_name",
			Args: map[string]any{"name": "prodigy cores"}})
		for c := 0; c < cores; c++ {
			r.tw.event(traceEvent{Ph: "M", Pid: 0, Tid: c, Name: "thread_name",
				Args: map[string]any{"name": "core " + strconv.Itoa(c)}})
		}
	}
}

// now returns the current simulated cycle (0 before Start).
func (r *Recorder) now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// Counter registers (or re-fetches) a named counter booked with AddAt,
// for events that belong to a cycle other than the current one (DRAM
// bandwidth booked ahead); every other interval counter is a CounterFunc.
// Registration happens while components attach, before the run produces
// data; late registrations after sampling has begun are refused (the
// returned ID is inert).
func (r *Recorder) Counter(name string) CounterID {
	if r == nil {
		return -1
	}
	if id, ok := r.index[name]; ok {
		return id
	}
	if r.sealed {
		return -1
	}
	id := CounterID(len(r.names))
	r.names = append(r.names, name)
	r.index[name] = id
	return id
}

// CounterFunc registers a snapshot counter: fn reads an always-on
// statistic, and each interval gets the change Snapshot saw over it, so
// nothing is counted twice. Registrations that share a name are summed
// (each core's prefetcher registers the same names).
func (r *Recorder) CounterFunc(name string, fn func() uint64) {
	if r == nil || r.sealed {
		return
	}
	r.sources = append(r.sources, source{id: r.Counter(name), fn: fn})
}

// TrackCounterFunc registers fn exactly like CounterFunc and additionally
// exports the counter as a Chrome counter track: one "C" event per
// flushed interval carrying the interval's delta, so the counter renders
// as a value-over-time track in the trace viewer. Tracks appear in
// first-registration order. With tracing disabled it behaves exactly like
// CounterFunc.
func (r *Recorder) TrackCounterFunc(name string, fn func() uint64) {
	r.CounterFunc(name, fn)
	if r == nil || r.sealed || r.tw == nil || slices.Contains(r.tracked, r.index[name]) {
		return
	}
	r.tracked = append(r.tracked, r.index[name])
}

// GaugeFunc registers a named gauge sampled at every interval boundary
// with the boundary cycle.
func (r *Recorder) GaugeFunc(name string, fn func(cycle int64) float64) {
	if r == nil || fn == nil {
		return
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// AddAt increments counter id by n, attributed to the interval containing
// cycle. Cycles in already-flushed intervals are dropped; cycles in
// future intervals (e.g. DRAM bandwidth booked ahead of time) buffer
// until that interval flushes.
func (r *Recorder) AddAt(id CounterID, cycle int64, n uint64) {
	if r == nil || id < 0 || !r.buffering() {
		return
	}
	if b := r.bucketFor(cycle / r.interval); b != nil && int(id) < len(b.counters) {
		b.counters[id] += n
	}
}

// StallSpan attributes core's cycles [from, to) to a stall class: the
// chunk is split across interval buckets for the CPI-stack samples, and
// consecutive same-class chunks coalesce into one timeline span. Classes
// index into the Start stall-class names.
func (r *Recorder) StallSpan(core, class int, from, to int64) {
	if r == nil || to <= from || core >= r.cores || class >= len(r.classes) {
		return
	}
	if r.metrics != nil {
		for cur := from; cur < to; {
			idx := cur / r.interval
			end := (idx + 1) * r.interval
			if end > to {
				end = to
			}
			if b := r.bucketFor(idx); b != nil {
				b.cpi[core][class] += end - cur
			}
			cur = end
		}
	}
	if r.tw != nil {
		s := &r.spans[core]
		if s.open && s.class == class && s.end == from {
			s.end = to
			return
		}
		if s.open {
			r.emitSpan(core, s)
		}
		*s = spanState{class: class, start: from, end: to, open: true}
	}
}

// Instant emits a zero-duration timeline marker on core's track at the
// current cycle (e.g. a prefetch sequence start or drop).
func (r *Recorder) Instant(core int, name, cat string) {
	if r == nil || r.tw == nil {
		return
	}
	r.tw.event(traceEvent{Ph: "i", Ts: r.now(), Pid: 0, Tid: core,
		Name: name, Cat: cat, Scope: "t"})
}

// FlowBegin opens an async span and flow arrow (id-matched with FlowEnd)
// at the current cycle — one per tracked prefetch, so issue-to-fill
// latency renders as its own track with arrows into the core timeline.
func (r *Recorder) FlowBegin(core int, id uint64, name, cat string) {
	if r == nil || r.tw == nil {
		return
	}
	ts := r.now()
	r.tw.event(traceEvent{Ph: "b", Ts: ts, Pid: 0, Tid: core, Name: name, Cat: cat, ID: hexID(id)})
	r.tw.event(traceEvent{Ph: "s", Ts: ts, Pid: 0, Tid: core, Name: name + "-flow", Cat: cat, ID: hexID(id)})
}

// FlowEnd closes the async span and flow arrow opened by FlowBegin.
func (r *Recorder) FlowEnd(core int, id uint64, name, cat string) {
	if r == nil || r.tw == nil {
		return
	}
	ts := r.now()
	r.tw.event(traceEvent{Ph: "e", Ts: ts, Pid: 0, Tid: core, Name: name, Cat: cat, ID: hexID(id)})
	r.tw.event(traceEvent{Ph: "f", BP: "e", Ts: ts, Pid: 0, Tid: core, Name: name + "-flow", Cat: cat, ID: hexID(id)})
}

// ledgerRecord is one prefetched line's issue→fill record: one line of
// the Options.Ledger output.
type ledgerRecord struct {
	// Core is the issuing core.
	Core int
	// LineAddr is the byte address of the line start.
	LineAddr uint64
	// IssuedAt/FilledAt are the issue and completion cycles.
	IssuedAt, FilledAt int64
	// Level is where the memory system serviced the prefetch, as a
	// cache.Level.
	Level uint8
	// DemandMerged reports that a demand reached the line while it was
	// still in flight (the "late" lifecycle class).
	DemandMerged bool
}

// PrefetchFill writes one completed prefetch's ledger record. It costs
// one branch without a ledger.
func (r *Recorder) PrefetchFill(core int, lineAddr uint64, issuedAt, filledAt int64, level uint8, demandMerged bool) {
	if r == nil || r.ledger == nil {
		return
	}
	if err := r.ledger.Encode(ledgerRecord{Core: core, LineAddr: lineAddr, IssuedAt: issuedAt,
		FilledAt: filledAt, Level: level, DemandMerged: demandMerged}); err != nil && r.err == nil {
		r.err = err
	}
}

// Latency counts one demand load's or atomic's issue→ready latency in
// cycles: TLB walk, hierarchy, DRAM and queueing, exactly the wait the
// engine charges the core.
func (r *Recorder) Latency(lat int64) {
	if r == nil {
		return
	}
	r.lat.Record(lat)
}

// Latencies returns the histogram Latency feeds (nil on a nil recorder).
func (r *Recorder) Latencies() *stats.Histogram {
	if r == nil {
		return nil
	}
	return &r.lat
}

// Snapshot books every snapshot counter's change since the previous
// Snapshot into the interval containing the current cycle. The engine
// calls it before the work of each cycle that crosses an interval
// boundary, when the clock still reads the last cycle at which any
// counted statistic could have moved; every change since the previous
// Snapshot happened in that same interval.
func (r *Recorder) Snapshot() {
	if r == nil || !r.buffering() {
		return
	}
	idx := r.now() / r.interval
	for i := range r.sources {
		s := &r.sources[i]
		v := s.fn()
		if v == s.last {
			continue
		}
		if b := r.bucketFor(idx); b != nil {
			b.counters[s.id] += v - s.last
		}
		s.last = v
	}
}

// Tick flushes every interval whose cycles are fully attributed (interval
// end at or before now). The engine calls it after stepping all cores at
// each scheduling point.
func (r *Recorder) Tick(now int64) {
	if r == nil || !r.buffering() {
		return
	}
	for (r.next+1)*r.interval <= now {
		r.flushNext(-1)
	}
}

// Finish takes a last Snapshot, flushes the trailing partial interval
// plus any future-booked buckets, closes open timeline spans, writes the
// trace footer, and returns the first write error encountered anywhere.
func (r *Recorder) Finish(end int64) error {
	if r == nil {
		return nil
	}
	if r.buffering() {
		r.Snapshot()
		for len(r.buckets) > 0 || r.next*r.interval < end {
			r.flushNext(end)
		}
	}
	if r.tw != nil {
		for core := range r.spans {
			if r.spans[core].open {
				r.emitSpan(core, &r.spans[core])
				r.spans[core].open = false
			}
		}
		r.tw.close()
		if r.err == nil {
			r.err = r.tw.err
		}
	}
	return r.err
}

// buffering reports whether interval buckets accumulate at all: either
// metrics output is enabled, or at least one counter is exported as a
// trace counter track. With neither, AddAt, Snapshot and Tick stay
// single-branch no-ops (the trace-only default path).
func (r *Recorder) buffering() bool {
	return r.metrics != nil || (r.tw != nil && len(r.tracked) > 0)
}

// bucketFor returns the bucket for interval idx, allocating as needed.
// Already-flushed intervals return nil (the caller drops the sample).
func (r *Recorder) bucketFor(idx int64) *bucket {
	r.sealed = true
	if idx < r.next {
		return nil
	}
	off := idx - r.next
	for int64(len(r.buckets)) <= off {
		r.buckets = append(r.buckets, nil)
	}
	if r.buckets[off] == nil {
		b := &bucket{counters: make([]uint64, len(r.names))}
		b.cpi = make([][]int64, r.cores)
		for i := range b.cpi {
			b.cpi[i] = make([]int64, len(r.classes))
		}
		r.buckets[off] = b
	}
	return r.buckets[off]
}

// MetricsRow is the JSONL schema of one interval sample. Exported so
// tests and downstream analysis unmarshal rows directly.
type MetricsRow struct {
	// Interval is the sample index; the sample covers simulated cycles
	// [Start, End).
	Interval int64 `json:"interval"`
	Start    int64 `json:"start"`
	End      int64 `json:"end"`
	// Cycles is the number of simulated cycles the run actually spent in
	// this interval (End-Start, clamped at the run's final cycle). Each
	// core's CPI entries sum to exactly this value.
	Cycles int64 `json:"cycles"`
	// CPI is the per-core CPI-stack slice: stall-class name to cycles
	// attributed within this interval.
	CPI []map[string]int64 `json:"cpi"`
	// Counters holds every registered counter's delta over the interval.
	Counters map[string]uint64 `json:"counters"`
	// Gauges holds each registered gauge sampled at the interval
	// boundary.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// flushNext emits the row for interval r.next. finish is the run's final
// cycle when known (Finish), -1 mid-run.
func (r *Recorder) flushNext(finish int64) {
	idx := r.next
	r.next++
	var b *bucket
	if len(r.buckets) > 0 {
		b = r.buckets[0]
		r.buckets = r.buckets[1:]
	}
	start := idx * r.interval
	end := start + r.interval
	// Counter tracks: one "C" sample per tracked counter per interval,
	// timestamped at the interval start, zero-delta intervals included so
	// the track stays continuous.
	if r.tw != nil {
		for _, id := range r.tracked {
			var v uint64
			if b != nil && int(id) < len(b.counters) {
				v = b.counters[id]
			}
			r.tw.event(traceEvent{Ph: "C", Ts: start, Pid: 0, Tid: 0,
				Name: r.names[id], Cat: "counter", Args: map[string]any{"value": v}})
		}
	}
	if r.metrics == nil {
		return
	}
	row := MetricsRow{
		Interval: idx,
		Start:    start,
		End:      end,
		Cycles:   r.interval,
		Counters: map[string]uint64{},
	}
	if finish >= 0 {
		if c := finish - start; c < row.Cycles {
			row.Cycles = c
		}
		if row.Cycles < 0 {
			row.Cycles = 0
		}
	}
	row.CPI = make([]map[string]int64, r.cores)
	for core := 0; core < r.cores; core++ {
		m := make(map[string]int64, len(r.classes))
		for ci, name := range r.classes {
			if b != nil {
				m[name] = b.cpi[core][ci]
			} else {
				m[name] = 0
			}
		}
		row.CPI[core] = m
	}
	for i, name := range r.names {
		if b != nil {
			row.Counters[name] = b.counters[i]
		} else {
			row.Counters[name] = 0
		}
	}
	if len(r.gauges) > 0 {
		sampleAt := end
		if finish >= 0 && finish < sampleAt {
			sampleAt = finish
		}
		row.Gauges = make(map[string]float64, len(r.gauges))
		for _, g := range r.gauges {
			row.Gauges[g.name] = g.fn(sampleAt)
		}
	}
	buf, err := json.Marshal(row)
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	r.metricsWrite(append(buf, '\n'))
}

// metricsWrite writes to the metrics sink, retaining the first error.
func (r *Recorder) metricsWrite(b []byte) {
	if _, err := r.metrics.Write(b); err != nil && r.err == nil {
		r.err = err
	}
}

// emitSpan writes one coalesced stall span as a complete ("X") event.
func (r *Recorder) emitSpan(core int, s *spanState) {
	name := "?"
	if s.class >= 0 && s.class < len(r.classes) {
		name = r.classes[s.class]
	}
	r.tw.event(traceEvent{Ph: "X", Ts: s.start, Dur: s.end - s.start,
		Pid: 0, Tid: core, Name: name, Cat: "stall"})
}

// hexID renders a flow/async id the way trace viewers expect.
func hexID(id uint64) string {
	var buf [18]byte
	return string(strconv.AppendUint(append(buf[:0], "0x"...), id, 16))
}
