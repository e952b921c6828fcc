package obs

// This file is the per-sweep JSONL routing layer for the sweep service
// (internal/exp/farm, cmd/prodigy-serve). A LineLog is an append-only
// NDJSON log that replays its full history to every subscriber before
// tailing live appends, so any number of clients joining a sweep at any
// time observe byte-identical streams.

import (
	"context"
	"io"
	"sync"

	"prodigy/internal/telemetry"
)

// LineLog is a thread-safe append-only line log with replay semantics:
// Stream delivers every line ever appended (history first, then live
// appends) and returns once the log is closed. All subscribers see the
// same lines in the same order — the log, not completion timing, is the
// source of truth for what a sweep streamed.
type LineLog struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	// changed is closed-and-replaced on every append and on Close, waking
	// all pending Stream calls.
	changed chan struct{}
	// met counts streaming activity (see StreamMetrics); the zero value
	// records nothing.
	met StreamMetrics
}

// StreamMetrics is the optional service-telemetry hookup for a LineLog:
// how many subscribers are attached, how many bytes have been streamed,
// and how many lines were delivered as replayed history versus live
// tail. Every field is nil-safe, so a zero StreamMetrics (the default)
// costs a few nil checks per line. This is wall-clock *service*
// telemetry — it observes who is reading a sweep's stream and never
// affects the streamed bytes themselves.
type StreamMetrics struct {
	// Subscribers is incremented for the duration of each Stream call.
	Subscribers *telemetry.Gauge
	// Bytes counts streamed bytes, including the newline per line.
	Bytes *telemetry.Counter
	// ReplayLines counts lines a subscriber received that existed before
	// it attached; TailLines counts lines it watched arrive live.
	ReplayLines *telemetry.Counter
	TailLines   *telemetry.Counter
}

// Instrument attaches stream telemetry. Call before the first Stream;
// typically once, right after NewLineLog.
func (l *LineLog) Instrument(m StreamMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = m
}

// NewLineLog returns an empty open log.
func NewLineLog() *LineLog {
	return &LineLog{changed: make(chan struct{})}
}

// NewLineLogFrom returns an open log whose history is lines (each
// without its trailing newline). The log takes the lines without
// copying them, so the caller must never modify them afterwards.
func NewLineLogFrom(lines [][]byte) *LineLog {
	return &LineLog{lines: lines, changed: make(chan struct{})}
}

// Append adds one line (without its trailing newline; a private copy is
// taken). Appends after Close are dropped.
func (l *LineLog) Append(line []byte) {
	cp := append([]byte(nil), line...)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.lines = append(l.lines, cp)
	close(l.changed)
	l.changed = make(chan struct{})
}

// Close marks end-of-stream: pending and future Stream calls return
// after delivering the full history.
func (l *LineLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.changed)
	l.changed = make(chan struct{})
}

// Len returns the number of lines appended so far.
func (l *LineLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// Snapshot returns the current content as one NDJSON byte slice (each
// line newline-terminated).
func (l *LineLog) Snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int
	for _, line := range l.lines {
		n += len(line) + 1
	}
	out := make([]byte, 0, n)
	for _, line := range l.lines {
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// Lines returns a copy of the individual lines appended so far.
func (l *LineLog) Lines() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.lines))
	for i, line := range l.lines {
		out[i] = append([]byte(nil), line...)
	}
	return out
}

// next returns the lines appended at or after index from, whether the
// log is closed, and a channel that signals the next state change.
func (l *LineLog) next(from int) ([][]byte, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines[from:], l.closed, l.changed
}

// metrics returns the attached stream telemetry and the current line
// count (the replay/tail boundary for a subscriber attaching now).
func (l *LineLog) metrics() (StreamMetrics, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.met, len(l.lines)
}

// Stream copies every line — full history first, then live appends — to
// w, newline-terminated, returning when the log is closed (nil error),
// the context is canceled (ctx.Err()), or a write fails. Each batch of
// lines picked up from the log goes out in one Write, flushed eagerly
// when w implements Flush(), so chunked HTTP clients see each completed
// cell without waiting for the sweep to finish. It returns the number of
// lines written.
func (l *LineLog) Stream(ctx context.Context, w io.Writer) (int, error) {
	type flusher interface{ Flush() }
	met, replayEnd := l.metrics()
	met.Subscribers.Add(1)
	defer met.Subscribers.Add(-1)
	n := 0
	var buf []byte
	for {
		lines, closed, changed := l.next(n)
		if len(lines) > 0 {
			size := 0
			for _, line := range lines {
				size += len(line) + 1
			}
			if cap(buf) < size {
				buf = make([]byte, 0, size)
			}
			buf = buf[:0]
			for _, line := range lines {
				buf = append(buf, line...)
				buf = append(buf, '\n')
			}
			written, err := w.Write(buf)
			n += met.credit(lines, n, replayEnd, written)
			if err != nil {
				return n, err
			}
			if f, ok := w.(flusher); ok {
				f.Flush()
			}
		}
		if closed {
			return n, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return n, ctx.Err()
		}
	}
}

// credit counts the lines of one batch that the writer took whole within
// its first written bytes — what a line-at-a-time stream would have
// counted — splitting them at replayEnd into replayed history and live
// tail. first is the log index of the batch's first line. It returns the
// number of whole lines.
func (m StreamMetrics) credit(lines [][]byte, first, replayEnd, written int) int {
	whole, bytes := 0, 0
	for _, line := range lines {
		if bytes+len(line)+1 > written {
			break
		}
		bytes += len(line) + 1
		whole++
	}
	replay := min(whole, max(0, replayEnd-first))
	m.Bytes.Add(uint64(bytes))
	m.ReplayLines.Add(uint64(replay))
	m.TailLines.Add(uint64(whole - replay))
	return whole
}
