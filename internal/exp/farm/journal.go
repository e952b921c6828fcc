package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// The sweep journal is one append-only JSONL file holding a record per
// finished sweep: its final Status and its stream, line by line, as
// store keys — inline only for what the store does not hold (abort
// records, lines whose Put failed). Together with the store it rebuilds
// any finished sweep's stream byte for byte, so the farm can evict
// sweeps from memory and a restarted server can still serve its
// predecessor's sweeps and continue their IDs. Records are appended with
// one write each and not synced: the results themselves are durable in
// the store, and a torn tail only costs that sweep's record.

// JournalPath is the sweep journal a farm keeps under its cache
// directory.
func JournalPath(dir string) string { return filepath.Join(dir, "sweeps.jsonl") }

// journalRecord is one finished sweep.
type journalRecord struct {
	Status Status        `json:"status"`
	Stream []journalLine `json:"stream"`
}

// journalLine is one streamed line: the store key of a line the store
// holds byte for byte, or the line itself.
type journalLine struct {
	Key  string `json:"key,omitempty"`
	Line string `json:"line,omitempty"`
}

// valid reports whether a decoded record can be served: a canonical
// sweep ID and exactly one of key or line per stream entry.
func (r *journalRecord) valid() bool {
	if sweepNum(r.Status.ID) == 0 {
		return false
	}
	for _, e := range r.Stream {
		if (e.Key == "") == (e.Line == "") {
			return false
		}
	}
	return true
}

// sweepNum parses a canonical sweep ID ("s001", "s1234") into its
// sequence number, or returns 0.
func sweepNum(id string) int {
	digits, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 1 || n > 1<<31 || fmt.Sprintf("s%03d", n) != id {
		return 0
	}
	return n
}

// journal is the open sweep journal and its index.
type journal struct {
	mu  sync.Mutex
	log *logFile
	// index locates each sweep's record (without its newline).
	index map[string]journalPos
	// buf and enc encode one record at a time, under mu.
	buf bytes.Buffer
	enc *json.Encoder
}

// journalPos locates one record in the file.
type journalPos struct {
	off int64
	n   int
}

// openJournal opens the journal under dir (openLog) and indexes its
// records, skipping repeated IDs (the first record wins). It returns the
// highest sweep number recorded.
func openJournal(dir string) (*journal, int, error) {
	j := &journal{index: map[string]journalPos{}}
	j.enc = json.NewEncoder(&j.buf)
	j.enc.SetEscapeHTML(false)
	last := 0
	l, err := openLog(JournalPath(dir), func(line []byte, off int64) bool {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || !rec.valid() {
			return false
		}
		if _, dup := j.index[rec.Status.ID]; dup {
			return false
		}
		j.index[rec.Status.ID] = journalPos{off: off, n: len(line)}
		last = max(last, sweepNum(rec.Status.ID))
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	j.log = l
	return j, last, nil
}

// append records one finished sweep with a single unsynced write.
func (j *journal) append(rec *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf.Reset()
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("farm: encode journal record: %w", err)
	}
	off, err := j.log.append(j.buf.Bytes())
	if err != nil {
		return err
	}
	j.index[rec.Status.ID] = journalPos{off: off, n: j.buf.Len() - 1}
	return nil
}

// read returns a sweep's record, or nil when the journal holds none.
func (j *journal) read(id string) (*journalRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	pos, ok := j.index[id]
	if !ok {
		return nil, nil
	}
	b := make([]byte, pos.n)
	if err := j.log.readAt(b, pos.off); err != nil {
		return nil, err
	}
	rec := &journalRecord{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("farm: decode journal record %s: %w", id, err)
	}
	return rec, nil
}

// close releases the file handle; the journal is unreadable afterwards.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.close()
}
