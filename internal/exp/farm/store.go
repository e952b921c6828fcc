package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prodigy/internal/telemetry"
)

// Store is the durable result cache behind the sweep service: one
// append-only JSONL file mapping canonical cell keys (exp.Harness.CellKey)
// to the exact RunSummary line the runner emitted when the cell was first
// simulated. Because the stored bytes are the original emission, a cache
// hit replays the cell byte-identically — across server restarts and
// across repeated CI sweeps — without re-simulating. Only completed runs
// are stored; aborted cells (timeout, cancel, shutdown) re-run on the
// next sweep that names them.
type Store struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	entries map[string][]byte
	// Skipped counts unparsable lines ignored while loading (e.g. a line
	// truncated by a crash mid-append).
	Skipped int

	// appendH/fsyncH time Put's write and sync phases (µs); nil (the
	// default) records nothing. Set via Instrument.
	appendH *telemetry.Histogram
	fsyncH  *telemetry.Histogram
}

// Instrument attaches service telemetry: Put records its append and
// fsync wall-clock latencies into the registry's farm_store_append_us
// and farm_store_fsync_us histograms. A nil registry detaches.
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendH = reg.Histogram("farm_store_append_us",
		"Result-cache append (write) wall-clock latency, microseconds.")
	s.fsyncH = reg.Histogram("farm_store_fsync_us",
		"Result-cache fsync wall-clock latency, microseconds.")
}

// storeEntry is one persisted line of results.jsonl.
type storeEntry struct {
	// Key is the canonical cell-configuration hash.
	Key string `json:"key"`
	// Summary is the verbatim RunSummary line the runner emitted.
	Summary json.RawMessage `json:"summary"`
}

// StorePath is the results file OpenStore manages under a cache
// directory.
func StorePath(dir string) string { return filepath.Join(dir, "results.jsonl") }

// OpenStore opens (creating as needed) the durable result cache under
// dir and loads every valid entry. Unparsable lines — a truncated tail
// from a crash mid-append, foreign junk — are counted in Skipped and
// ignored, so one bad record never invalidates the rest of the cache.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: cache dir: %w", err)
	}
	path := StorePath(dir)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: open result cache: %w", err)
	}
	s := &Store{path: path, f: f, entries: map[string][]byte{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e storeEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || len(e.Summary) == 0 {
			s.Skipped++
			continue
		}
		// Last write wins: a re-stored key (two processes racing on the
		// same directory) keeps the newest summary.
		s.entries[e.Key] = append([]byte(nil), e.Summary...)
	}
	if err := sc.Err(); err != nil {
		cerr := f.Close()
		_ = cerr // the scan error is the actionable one
		return nil, fmt.Errorf("farm: load result cache %s: %w", path, err)
	}
	return s, nil
}

// Get returns the stored summary line for key (without trailing
// newline), or ok=false on a miss; a nil store holds nothing. Stored
// lines are never modified, so the slice is shared: callers must not
// write to it.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	line, ok := s.entries[key]
	return line, ok
}

// holds reports whether the store's line for key is exactly line: a
// re-put key keeps its first line, which a later sweep's live line for
// the same cell need not match (its wall_ms differs).
func (s *Store) holds(key string, line []byte) bool {
	stored, ok := s.Get(key)
	return ok && bytes.Equal(stored, line)
}

// Put durably records one completed cell's summary line under key,
// appending to the results file and syncing so a crash directly after a
// long simulation cannot lose it. Re-putting an existing key is a no-op:
// the first stored result stays authoritative.
func (s *Store) Put(key string, summary []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return nil
	}
	if s.f == nil {
		return fmt.Errorf("farm: result cache %s is closed", s.path)
	}
	e := storeEntry{Key: key, Summary: json.RawMessage(summary)}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("farm: encode cache entry: %w", err)
	}
	start := time.Now() //lint:allow determinism store latency telemetry; simulated results never read it
	if _, err := s.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("farm: append result cache: %w", err)
	}
	//lint:allow determinism store latency telemetry; simulated results never read it
	wrote := time.Now()
	s.appendH.Observe(wrote.Sub(start).Microseconds())
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("farm: sync result cache: %w", err)
	}
	//lint:allow determinism store latency telemetry; simulated results never read it
	s.fsyncH.Observe(time.Since(wrote).Microseconds())
	s.entries[key] = append([]byte(nil), summary...)
	return nil
}

// Len returns the number of cached cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close releases the append handle. The in-memory index stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
