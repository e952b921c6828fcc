package farm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// logFile is one append-only JSONL file of the farm's cache directory,
// one record per line: all the file handling of the result cache and the
// sweep journal. Its owner serializes every call under its own lock.
type logFile struct {
	path string
	f    *os.File
	// size is the offset the next record lands at.
	size int64
	// skipped counts the lines openLog's parse rejected.
	skipped int
}

// openLog opens (creating as needed) the log at path and hands parse
// every non-empty line, without its newline, and its offset. The lines
// parse rejects — torn by a crash mid-append, foreign junk of any
// length — are counted in skipped. A torn tail is newline-terminated, so
// the next record starts on a line of its own.
func openLog(path string, parse func(line []byte, off int64) bool) (*logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: open cache file: %w", err)
	}
	l := &logFile{path: path, f: f}
	r := bufio.NewReader(f)
	for err == nil {
		var line []byte
		line, err = r.ReadBytes('\n')
		if body := bytes.TrimSuffix(line, []byte("\n")); len(body) > 0 && !parse(body, l.size) {
			l.skipped++
		}
		l.size += int64(len(line))
	}
	if err == io.EOF {
		err = l.terminate()
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("farm: load %s: %w", path, err), f.Close())
	}
	return l, nil
}

// terminate appends a newline when the file is not empty and does not
// end in one.
func (l *logFile) terminate() error {
	if l.size == 0 {
		return nil
	}
	var last [1]byte
	if _, err := l.f.ReadAt(last[:], l.size-1); err != nil || last[0] == '\n' {
		return err
	}
	n, err := l.f.Write([]byte{'\n'})
	l.size += int64(n)
	return err
}

// append writes rec, one newline-terminated record, in a single write,
// without syncing, and returns its offset. A partial write is
// newline-terminated, so the next record starts on a line of its own.
func (l *logFile) append(rec []byte) (int64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("farm: %s is closed", l.path)
	}
	off := l.size
	n, err := l.f.Write(rec)
	l.size += int64(n)
	if err != nil {
		if n > 0 {
			err = errors.Join(err, l.terminate())
		}
		return 0, fmt.Errorf("farm: append %s: %w", l.path, err)
	}
	return off, nil
}

// sync flushes the records appended so far to stable storage.
func (l *logFile) sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("farm: sync %s: %w", l.path, err)
	}
	return nil
}

// readAt fills b from the file at off.
func (l *logFile) readAt(b []byte, off int64) error {
	if l.f == nil {
		return fmt.Errorf("farm: %s is closed", l.path)
	}
	if _, err := l.f.ReadAt(b, off); err != nil {
		return fmt.Errorf("farm: read %s: %w", l.path, err)
	}
	return nil
}

// close releases the file handle; closing again is a no-op.
func (l *logFile) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
