// Package farm turns the one-shot experiment harness (internal/exp)
// into a long-running sweep backend: it accepts sweep specifications
// (algos × datasets × schemes), shards the cells across the harness's
// bounded worker pool, deduplicates work through a durable
// config-hash-keyed result cache (store.go), and streams every cell's
// RunSummary line — cached replays first, then live completions — to any
// number of concurrent subscribers through an obs.LineLog. A sweep whose
// every cell is cached finishes inline, without a harness or goroutine.
// Each finished sweep is recorded in one append-only journal (journal.go);
// the farm keeps the last RetainedSweeps of them in memory and rebuilds
// older ones from the journal and the store on demand. Both files live
// in the farm's cache directory, and one append-only JSONL file type
// (log.go) does all their file handling.
//
// Sweeps are interruptible and resumable: Cancel (or a server drain)
// aborts in-flight simulations through exp.Config.Interrupt with a
// typed cause, completed cells stay cached, and re-submitting the same
// spec after a restart replays the cached cells byte-identically and
// simulates only what is missing. cmd/prodigy-serve is the HTTP front
// end; docs/SERVING.md specifies the semantics.
package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/obs"
	"prodigy/internal/telemetry"
	"prodigy/internal/workloads"
)

// Config parameterizes a Farm.
type Config struct {
	// Exp is the harness configuration template every sweep runs under
	// (machine geometry, scale, parallelism, timeouts). The per-sweep
	// fields JSONLog, Progress, Interrupt, and OnCell are managed by the
	// farm; values set here for them are ignored.
	Exp exp.Config
	// Dir is the cache directory, created as needed. It holds the durable
	// result cache (StorePath), consulted before and fed after every
	// simulation, and the sweep journal (JournalPath): one record per
	// finished sweep, from which sweeps evicted from memory and sweeps of
	// earlier processes are served.
	Dir string
	// Metrics, when non-nil, receives the farm's service telemetry
	// (cells, cache hit rate, queue depth, per-cell wall-clock, stream
	// and store latencies — metrics.go catalogs the families). Nil
	// disables instrumentation; every site is nil-safe.
	Metrics *telemetry.Registry
}

// RetainedSweeps is how many finished sweeps a farm keeps in memory.
// Older ones are evicted and served from the journal instead, which
// clients cannot tell apart; running sweeps are never evicted.
const RetainedSweeps = 256

// ErrShutdown rejects work submitted after Shutdown began.
var ErrShutdown = errors.New("farm: shutting down")

// Farm owns the sweep registry and the shared result cache.
type Farm struct {
	cfg   Config
	store *store
	// journal records every finished sweep.
	journal *journal

	// keys memoizes cell store keys. A Spec carries no machine knobs, so
	// within one farm a key depends only on the cell: each is derived
	// once, from keyer.
	keyMu sync.Mutex
	keyer *exp.Harness
	keys  map[exp.Cell]string

	mu sync.Mutex
	// sweeps holds the retained sweeps: every running one plus the last
	// RetainedSweeps finished ones, which finished lists in finish order
	// (eviction goes oldest first).
	sweeps   map[string]*Sweep
	finished []string
	nextID   int
	closed   bool

	// draining flips when Shutdown's deadline expires: every in-flight
	// simulation is then interrupted with exp.AbortShutdown.
	draining atomic.Bool
	wg       sync.WaitGroup

	met farmMetrics
}

// New builds a farm over Config.Dir: it creates the directory as needed,
// opens the result cache and the sweep journal there, and continues
// sweep IDs after the highest one the journal holds.
func New(cfg Config) (*Farm, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: cache dir: %w", err)
	}
	st, err := openStore(cfg.Dir, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	j, last, err := openJournal(cfg.Dir)
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	return &Farm{
		cfg:     cfg,
		store:   st,
		journal: j,
		nextID:  last,
		keyer:   exp.New(cfg.Exp),
		keys:    map[exp.Cell]string{},
		sweeps:  map[string]*Sweep{},
		met:     newFarmMetrics(cfg.Metrics),
	}, nil
}

// Loaded reports the cells the result cache holds (after New: what it
// loaded) and the unparsable lines New skipped in the result cache and
// in the sweep journal.
func (f *Farm) Loaded() (cells, skippedResults, skippedSweeps int) {
	return f.store.Len(), f.store.log.skipped, f.journal.log.skipped
}

// Close releases the result cache and the sweep journal. Call it after
// Shutdown, once nothing reads sweeps any more: evicted sweeps are
// unreadable afterwards.
func (f *Farm) Close() error {
	return errors.Join(f.journal.close(), f.store.Close())
}

// ShuttingDown reports whether Shutdown has begun: the farm rejects new
// sweeps and the HTTP front end's /healthz reports "draining".
func (f *Farm) ShuttingDown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Spec is the wire form of one sweep request: the requested cells are
// the cross product algos × datasets × schemes, except that non-graph
// algorithms take no dataset and appear once per scheme. An empty
// Datasets list means every dataset the farm's harness configuration
// enables.
type Spec struct {
	Algos    []string `json:"algos"`
	Datasets []string `json:"datasets,omitempty"`
	Schemes  []string `json:"schemes"`
}

// cells validates the spec and expands it into grid cells in
// deterministic grid order. defaults supplies the dataset list used
// when the spec names none.
func (sp Spec) cells(defaults []string) ([]exp.Cell, error) {
	if len(sp.Algos) == 0 {
		return nil, fmt.Errorf("farm: sweep spec names no algorithms")
	}
	if len(sp.Schemes) == 0 {
		return nil, fmt.Errorf("farm: sweep spec names no schemes")
	}
	known := map[string]bool{}
	for _, a := range workloads.AllAlgos {
		known[a] = true
	}
	for _, a := range sp.Algos {
		if !known[a] {
			return nil, fmt.Errorf("farm: unknown algorithm %q (want one of %v)", a, workloads.AllAlgos)
		}
	}
	datasets := sp.Datasets
	if len(datasets) == 0 {
		datasets = defaults
	}
	knownDS := map[string]bool{}
	for _, d := range graph.DatasetNames() {
		knownDS[d] = true
	}
	for _, d := range datasets {
		if !knownDS[d] {
			return nil, fmt.Errorf("farm: unknown dataset %q (want one of %v)", d, graph.DatasetNames())
		}
	}
	schemes := make([]exp.Scheme, 0, len(sp.Schemes))
	for _, s := range sp.Schemes {
		k, err := exp.ParseScheme(s)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, k)
	}
	var cells []exp.Cell
	seen := map[exp.Cell]bool{}
	for _, a := range sp.Algos {
		ds := datasets
		if !workloads.IsGraphAlgo(a) {
			ds = []string{""}
		}
		for _, d := range ds {
			for _, s := range schemes {
				c := exp.Cell{Algo: a, Dataset: d, Scheme: s}
				if seen[c] {
					continue
				}
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// Status is a sweep's point-in-time progress snapshot.
type Status struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
	// Cached cells were replayed from the durable store without
	// simulating; Simulated completed live; Aborted died (timeout,
	// cancel, shutdown, error) and are not cached.
	Cached    int  `json:"cached"`
	Simulated int  `json:"simulated"`
	Aborted   int  `json:"aborted"`
	Done      bool `json:"done"`
	Canceled  bool `json:"canceled"`
	// Live progress: InFlight cells are simulating right now, Queued are
	// accepted but not yet picked up by a worker (both 0 once Done).
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// ElapsedMS is wall clock since submission (frozen at completion).
	// EtaMS extrapolates the remaining cells from the rate of completed
	// live simulations; it is 0 (omitted) while no live cell has finished
	// and once the sweep is done.
	ElapsedMS float64 `json:"elapsed_ms"`
	EtaMS     float64 `json:"eta_ms,omitempty"`
	// Err carries the joined cell errors of a finished sweep ("" while
	// running or on full success).
	Err string `json:"error,omitempty"`
	// Spec echoes the request.
	Spec Spec `json:"spec"`
}

// Sweep is one submitted grid in flight or finished.
type Sweep struct {
	// ID is the farm-assigned handle ("s001", ...).
	ID string
	// Log is the sweep's NDJSON stream: cached replays in grid order,
	// then live completions in completion order. It closes when the
	// sweep finishes; subscribers replay the full history first, so
	// every client observes byte-identical streams.
	Log *obs.LineLog

	farm   *Farm
	spec   Spec
	ncells int
	// h is the sweep's harness; it exists only while the sweep simulates.
	h *exp.Harness

	cancelCause atomic.Pointer[string]
	done        chan struct{}

	mu        sync.Mutex
	cached    int
	simulated int
	aborted   int
	inflight  int
	queued    int
	// started is the submission wall clock (service telemetry only;
	// simulated results never read it).
	started time.Time
	err     error
	// stream is the journal form of Log so far, one entry per line.
	stream []journalLine
	// final is the status frozen when the sweep finished.
	final *Status
}

// Start validates spec, registers a new sweep, and launches it. Cached
// cells are replayed onto the sweep's Log before any simulation starts;
// a sweep whose every cell is cached finishes before Start returns.
func (f *Farm) Start(spec Spec) (*Sweep, error) {
	// Resolve the default dataset list exactly like the harness will.
	defaults := f.cfg.Exp.Datasets
	if len(defaults) == 0 {
		defaults = graph.DatasetNames()
	}
	cells, err := spec.cells(defaults)
	if err != nil {
		return nil, err
	}
	keys, err := f.cellKeys(cells)
	if err != nil {
		return nil, err
	}

	// Replay cached cells, in grid order, before anything simulates:
	// callers (and response headers) observe the exact cached count
	// immediately, and every subscriber sees the replays ahead of any
	// live completion.
	s := &Sweep{
		farm:   f,
		spec:   spec,
		ncells: len(cells),
		stream: make([]journalLine, 0, len(cells)),
		done:   make(chan struct{}),
	}
	s.started = time.Now() //lint:allow determinism service telemetry wall clock; simulated results never read it
	var replayed [][]byte
	var torun []exp.Cell
	for i, c := range cells {
		if line, ok := f.store.Get(keys[i]); ok {
			replayed = append(replayed, line)
			s.stream = append(s.stream, journalLine{Key: keys[i]})
			continue
		}
		torun = append(torun, c)
	}
	s.Log = obs.NewLineLogFrom(replayed)
	s.Log.Instrument(f.met.stream)
	s.cached, s.queued = len(replayed), len(torun)

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrShutdown
	}
	f.nextID++
	s.ID = fmt.Sprintf("s%03d", f.nextID)
	f.sweeps[s.ID] = s
	f.wg.Add(1)
	f.mu.Unlock()

	m := &f.met
	m.cacheHits.Add(uint64(len(replayed)))
	m.cellsCached.Add(uint64(len(replayed)))
	m.cacheMisses.Add(uint64(len(torun)))
	m.sweepsTotal.Inc()
	m.activeSweeps.Add(1)
	m.queueDepth.Add(int64(len(torun)))

	if len(torun) == 0 {
		s.finish()
		return s, nil
	}
	hcfg := f.cfg.Exp
	hcfg.Progress = nil
	hcfg.Interrupt = s.interruptCause
	hcfg.JSONLog = nil // the done events carry every line
	hcfg.OnCell = s.cellEvent
	s.h = exp.New(hcfg)
	go s.run(torun)
	return s, nil
}

// cellKeys returns the store key of every cell, deriving each at most
// once per farm.
func (f *Farm) cellKeys(cells []exp.Cell) ([]string, error) {
	keys := make([]string, len(cells))
	f.keyMu.Lock()
	defer f.keyMu.Unlock()
	for i, c := range cells {
		key, ok := f.keys[c]
		if !ok {
			var err error
			if key, err = f.keyer.CellKey(c.Algo, c.Dataset, c.Scheme); err != nil {
				return nil, err
			}
			f.keys[c] = key
		}
		keys[i] = key
	}
	return keys, nil
}

// Get returns a sweep by ID: a retained one, or one rebuilt from the
// journal (evicted, or finished by an earlier process).
func (f *Farm) Get(id string) (*Sweep, bool) {
	f.mu.Lock()
	s, ok := f.sweeps[id]
	f.mu.Unlock()
	if ok {
		return s, ok
	}
	s, err := f.load(id)
	if err != nil {
		f.fail("journal_read", id, err)
		return nil, false
	}
	return s, s != nil
}

// load rebuilds a finished sweep from its journal record and the store:
// a closed log holding exactly the lines the sweep streamed, and its
// final status. It returns nil for an ID the journal does not hold.
func (f *Farm) load(id string) (*Sweep, error) {
	rec, err := f.journal.read(id)
	if rec == nil || err != nil {
		return nil, err
	}
	lines := make([][]byte, len(rec.Stream))
	for i, e := range rec.Stream {
		if e.Key == "" {
			lines[i] = []byte(e.Line)
			continue
		}
		line, ok := f.store.Get(e.Key)
		if !ok {
			return nil, fmt.Errorf("farm: sweep %s: result cache has no line for key %s", id, e.Key)
		}
		lines[i] = line
	}
	s := &Sweep{ID: id, farm: f, spec: rec.Status.Spec, ncells: rec.Status.Cells, final: &rec.Status, done: make(chan struct{})}
	if rec.Status.Err != "" {
		s.err = errors.New(rec.Status.Err)
	}
	s.Log = obs.NewLineLogFrom(lines)
	s.Log.Instrument(f.met.stream)
	s.Log.Close()
	close(s.done)
	return s, nil
}

// List returns the retained sweeps' statuses in submission order.
func (f *Farm) List() []Status {
	f.mu.Lock()
	sweeps := slices.Collect(maps.Values(f.sweeps))
	f.mu.Unlock()
	slices.SortFunc(sweeps, func(a, b *Sweep) int { return sweepNum(a.ID) - sweepNum(b.ID) })
	out := make([]Status, len(sweeps))
	for i, s := range sweeps {
		out[i] = s.Status()
	}
	return out
}

// Cancel aborts a sweep's in-flight and queued cells with
// exp.AbortCanceled. Completed cells stay cached; canceling a finished
// sweep is a no-op.
func (f *Farm) Cancel(id string) error {
	s, ok := f.Get(id)
	if !ok {
		return fmt.Errorf("farm: no sweep %q", id)
	}
	s.cancel(exp.AbortCanceled)
	return nil
}

// Shutdown stops accepting sweeps and waits for running ones to finish.
// If ctx expires first, every in-flight simulation is interrupted with
// exp.AbortShutdown and Shutdown still waits for the (now fast) drain,
// returning ctx's error to signal the forced stop.
func (f *Farm) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.draining.Store(true)
		<-done
		return ctx.Err()
	}
}

// retire keeps a finished sweep in memory and evicts the oldest finished
// ones beyond RetainedSweeps.
func (f *Farm) retire(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished = append(f.finished, id)
	for len(f.finished) > RetainedSweeps {
		old := f.finished[0]
		f.finished = f.finished[1:]
		delete(f.sweeps, old)
	}
}

// fail reports one farm failure: a structured log line tagged with the
// sweep ID (and any further attributes, such as the cell) and a
// farm_errors_total{op} tick.
func (f *Farm) fail(op, sweep string, err error, attrs ...any) {
	f.met.failed(op)
	slog.Error("farm: "+op+" failed", append([]any{"op", op, "sweep", sweep, "err", err}, attrs...)...)
}

// interruptCause is polled by every simulation this sweep runs.
func (s *Sweep) interruptCause() string {
	if s.farm.draining.Load() {
		return exp.AbortShutdown
	}
	if c := s.cancelCause.Load(); c != nil {
		return *c
	}
	return ""
}

// cancel records cause for the sweep's simulations to abort with; on a
// finished sweep it is a no-op.
func (s *Sweep) cancel(cause string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final == nil {
		s.cancelCause.CompareAndSwap(nil, &cause)
	}
}

// Done exposes completion: the channel closes when the sweep finishes.
func (s *Sweep) Done() <-chan struct{} { return s.done }

// Err returns the joined per-cell errors after Done (nil on success).
func (s *Sweep) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Status snapshots progress, including the live view: in-flight and
// queued cells, elapsed wall clock, and an ETA extrapolated from the
// completed-cell rate (remaining ÷ cells-per-second so far; the worker
// pool's parallelism is already reflected in that rate). A finished
// sweep returns the status frozen when it finished.
func (s *Sweep) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final != nil {
		return *s.final
	}
	st := s.snapshot(time.Now()) //lint:allow determinism service telemetry wall clock; simulated results never read it
	if done := s.simulated + s.aborted; done > 0 {
		remaining := s.inflight + s.queued
		st.EtaMS = st.ElapsedMS * float64(remaining) / float64(done)
	}
	return st
}

// snapshot builds the status as of end, under s.mu.
func (s *Sweep) snapshot(end time.Time) Status {
	return Status{
		ID:        s.ID,
		Cells:     s.ncells,
		Cached:    s.cached,
		Simulated: s.simulated,
		Aborted:   s.aborted,
		Canceled:  s.cancelCause.Load() != nil,
		InFlight:  s.inflight,
		Queued:    s.queued,
		ElapsedMS: float64(end.Sub(s.started).Microseconds()) / 1e3,
		Spec:      s.spec,
	}
}

// Summaries parses the sweep's streamed NDJSON back into runner
// summaries (the /diff endpoint's input).
func (s *Sweep) Summaries() ([]exp.RunSummary, error) {
	lines := s.Log.Lines()
	out := make([]exp.RunSummary, 0, len(lines))
	for _, line := range lines {
		var sum exp.RunSummary
		if err := json.Unmarshal(line, &sum); err != nil {
			return nil, fmt.Errorf("farm: sweep %s: bad summary line %q: %w", s.ID, line, err)
		}
		out = append(out, sum)
	}
	return out, nil
}

// run executes the uncached remainder of the sweep through the harness
// worker pool (Start already replayed the cached cells).
func (s *Sweep) run(torun []exp.Cell) {
	_, err := s.h.RunGrid(torun)
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	s.finish()
}

// finish ends a sweep: it freezes the status, journals and retires the
// sweep, and closes its stream and done. Every cell has sent its done
// event by now, so the queue and in-flight counts are back to zero.
func (s *Sweep) finish() {
	f := s.farm
	s.mu.Lock()
	st := s.snapshot(time.Now()) //lint:allow determinism service telemetry wall clock; simulated results never read it
	st.Done = true
	if s.err != nil {
		st.Err = s.err.Error()
	}
	s.final = &st
	rec := journalRecord{Status: st, Stream: s.stream}
	s.stream, s.h = nil, nil
	s.mu.Unlock()
	f.met.activeSweeps.Add(-1)

	if err := f.journal.append(&rec); err != nil {
		f.fail("journal", s.ID, err)
	}
	// Retire before done closes, so sweeps are evicted in the order
	// their waiters observe them finish.
	f.retire(s.ID)
	s.Log.Close()
	close(s.done)
	f.wg.Done()
}

// cellEvent is the harness OnCell hook. A start event moves one of this
// sweep's cells from queued to in flight. A done event persists the
// cell's line when the run completed (abort records are never cached: a
// canceled or timed-out cell must re-run next time), then streams it and
// tallies the cell; a cell that died without a line counts as aborted
// with cause "error". The journal names the line by its store key when
// the store now holds it byte for byte, and carries it inline otherwise.
// The live stream and the journal take each line in one critical
// section, so a rebuilt sweep streams its lines in the live order.
func (s *Sweep) cellEvent(ev exp.CellEvent) {
	f := s.farm
	m := &f.met
	if !ev.Done {
		s.mu.Lock()
		s.queued--
		s.inflight++
		s.mu.Unlock()
		m.queueDepth.Add(-1)
		m.inflight.Add(1)
		return
	}
	entry := journalLine{Line: string(ev.Line)}
	if ev.Line != nil && ev.Err == nil {
		f.keyMu.Lock()
		key := f.keys[ev.Cell]
		f.keyMu.Unlock()
		if held, err := f.store.Put(key, ev.Line); err != nil {
			f.fail("store", s.ID, err, "cell", ev.Cell.String())
		} else if held {
			entry = journalLine{Key: key}
		}
	}
	s.mu.Lock()
	if ev.Line != nil {
		s.Log.Append(ev.Line)
		s.stream = append(s.stream, entry)
	}
	if ev.Err == nil {
		s.simulated++
	} else {
		s.aborted++
	}
	s.inflight--
	s.mu.Unlock()
	m.inflight.Add(-1)
	switch {
	case ev.Err == nil:
		m.cellsSimulated.Inc()
		m.cellWall(ev.Cell, ev.Summary.WallMS)
	case ev.Summary != nil:
		m.cellAborted(ev.Summary.Abort)
	default:
		m.cellAborted(exp.AbortError)
	}
}
