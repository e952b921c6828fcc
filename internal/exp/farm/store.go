package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"prodigy/internal/telemetry"
)

// store is the durable result cache behind the sweep service: one
// append-only JSONL file mapping canonical cell keys (exp.Harness.CellKey)
// to the exact RunSummary line the runner emitted when the cell was first
// simulated. Because the stored bytes are the original emission, a cache
// hit replays the cell byte-identically — across server restarts and
// across repeated CI sweeps — without re-simulating. Only completed runs
// are stored; aborted cells (timeout, cancel, shutdown) re-run on the
// next sweep that names them.
type store struct {
	mu      sync.Mutex
	log     *logFile
	entries map[string][]byte

	// appendH/fsyncH time Put's write and sync phases (µs); nil without a
	// registry.
	appendH *telemetry.Histogram
	fsyncH  *telemetry.Histogram
}

// storeEntry is one persisted line of results.jsonl.
type storeEntry struct {
	// Key is the canonical cell-configuration hash.
	Key string `json:"key"`
	// Summary is the verbatim RunSummary line the runner emitted.
	Summary json.RawMessage `json:"summary"`
}

// StorePath is the result cache a farm keeps under its cache directory.
func StorePath(dir string) string { return filepath.Join(dir, "results.jsonl") }

// openStore opens the result cache under dir (openLog) and loads every
// valid entry. Put records its append and fsync latencies into reg's
// farm_store_append_us and farm_store_fsync_us histograms.
func openStore(dir string, reg *telemetry.Registry) (*store, error) {
	s := &store{
		entries: map[string][]byte{},
		appendH: reg.Histogram("farm_store_append_us",
			"Result-cache append (write) wall-clock latency, microseconds."),
		fsyncH: reg.Histogram("farm_store_fsync_us",
			"Result-cache fsync wall-clock latency, microseconds."),
	}
	l, err := openLog(StorePath(dir), func(line []byte, _ int64) bool {
		var e storeEntry
		if json.Unmarshal(line, &e) != nil || e.Key == "" || len(e.Summary) == 0 {
			return false
		}
		// Last write wins: a re-stored key (two processes racing on the
		// same directory) keeps the newest summary.
		s.entries[e.Key] = e.Summary
		return true
	})
	if err != nil {
		return nil, err
	}
	s.log = l
	return s, nil
}

// Get returns the stored summary line for key (without trailing
// newline), or ok=false on a miss. Stored lines are never modified, so
// the slice is shared: callers must not write to it.
func (s *store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	line, ok := s.entries[key]
	return line, ok
}

// Put durably records one completed cell's summary line under key,
// appending to the results file and syncing so a crash directly after a
// long simulation cannot lose it, and reports whether the store now
// holds exactly summary. Re-putting an existing key is a no-op: the
// first stored result stays authoritative, and a later sweep's live line
// for the same cell need not match it (its wall_ms differs).
func (s *store) Put(key string, summary []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stored, ok := s.entries[key]; ok {
		return bytes.Equal(stored, summary), nil
	}
	b, err := json.Marshal(storeEntry{Key: key, Summary: json.RawMessage(summary)})
	if err != nil {
		return false, fmt.Errorf("farm: encode cache entry: %w", err)
	}
	start := time.Now() //lint:allow determinism store latency telemetry; simulated results never read it
	if _, err := s.log.append(append(b, '\n')); err != nil {
		return false, err
	}
	//lint:allow determinism store latency telemetry; simulated results never read it
	wrote := time.Now()
	s.appendH.Observe(wrote.Sub(start).Microseconds())
	if err := s.log.sync(); err != nil {
		return false, err
	}
	//lint:allow determinism store latency telemetry; simulated results never read it
	s.fsyncH.Observe(time.Since(wrote).Microseconds())
	s.entries[key] = append([]byte(nil), summary...)
	return true, nil
}

// Len returns the number of cached cells.
func (s *store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close releases the append handle. The in-memory index stays readable.
func (s *store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.close()
}
