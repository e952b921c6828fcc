package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// The sweep journal is one append-only JSONL file holding a record per
// finished sweep: its final Status and its stream, line by line, as
// store keys — inline only for what the store does not hold (abort
// records, lines whose Put failed). Together with the Store it rebuilds
// any finished sweep's stream byte for byte, so the farm can evict
// sweeps from memory and a restarted server can still serve its
// predecessor's sweeps and continue their IDs. Records are appended with
// one write each and not synced: the results themselves are durable in
// the store, and a torn tail only costs that sweep's record.

// JournalPath is the sweep journal a farm keeps under its LogDir.
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
	mu   sync.Mutex
	path string
	f    *os.File
	// size is the file length: the offset the next record lands at.
	size int64
	// index locates each sweep's record (without its newline).
	index map[string]journalPos
	// buf and enc encode one record at a time, under mu.
	buf bytes.Buffer
	enc *json.Encoder
	// skipped counts the unparsable lines openJournal ignored.
	skipped int
}

// journalPos locates one record in the file.
type journalPos struct {
	off int64
	n   int
}

// openJournal opens (creating as needed) the journal at path and indexes
// its records. It returns the highest sweep number recorded. Unparsable
// lines and repeated IDs (the first record wins) are counted and
// skipped; a torn tail is newline-terminated so the next record starts
// on a line of its own.
func openJournal(path string) (*journal, int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, fmt.Errorf("farm: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("farm: open sweep journal: %w", err)
	}
	j := &journal{path: path, f: f, index: map[string]journalPos{}}
	j.enc = json.NewEncoder(&j.buf)
	j.enc.SetEscapeHTML(false)
	last, err := j.load()
	if err == nil && j.size > 0 {
		err = j.terminate()
	}
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("farm: load sweep journal %s: %w", path, err), f.Close())
	}
	return j, last, nil
}

// load scans the whole file, indexing every valid record.
func (j *journal) load() (int, error) {
	r := bufio.NewReader(j.f)
	last := 0
	for {
		line, err := r.ReadBytes('\n')
		if body := bytes.TrimSuffix(line, []byte("\n")); len(body) > 0 {
			var rec journalRecord
			if json.Unmarshal(body, &rec) != nil || !rec.valid() {
				j.skipped++
			} else if _, dup := j.index[rec.Status.ID]; dup {
				j.skipped++
			} else {
				j.index[rec.Status.ID] = journalPos{off: j.size, n: len(body)}
				last = max(last, sweepNum(rec.Status.ID))
			}
		}
		j.size += int64(len(line))
		if err == io.EOF {
			return last, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// terminate appends a newline when the file does not end in one.
func (j *journal) terminate() error {
	var last [1]byte
	if _, err := j.f.ReadAt(last[:], j.size-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	n, err := j.f.Write([]byte{'\n'})
	j.size += int64(n)
	return err
}

// append records one finished sweep with a single write.
func (j *journal) append(rec *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("farm: sweep journal %s is closed", j.path)
	}
	j.buf.Reset()
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("farm: encode journal record: %w", err)
	}
	off := j.size
	n, err := j.f.Write(j.buf.Bytes())
	j.size += int64(n)
	if err != nil {
		if n > 0 {
			// Keep the next record off the torn one's line.
			err = errors.Join(err, j.terminate())
		}
		return fmt.Errorf("farm: append sweep journal: %w", err)
	}
	j.index[rec.Status.ID] = journalPos{off: off, n: n - 1}
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
	if j.f == nil {
		return nil, fmt.Errorf("farm: sweep journal %s is closed", j.path)
	}
	b := make([]byte, pos.n)
	if _, err := j.f.ReadAt(b, pos.off); err != nil {
		return nil, fmt.Errorf("farm: read sweep journal: %w", err)
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
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
