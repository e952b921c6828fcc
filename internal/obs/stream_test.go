package obs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"prodigy/internal/telemetry"
)

// TestLineLogReplayThenTail checks the subscriber contract: a client
// joining mid-stream replays the full history before tailing live
// appends, and Stream returns nil once the log closes.
func TestLineLogReplayThenTail(t *testing.T) {
	l := NewLineLog()
	l.Append([]byte("one"))

	var buf bytes.Buffer
	done := make(chan error, 1)
	var n int
	go func() {
		var err error
		n, err = l.Stream(context.Background(), &buf)
		done <- err
	}()

	l.Append([]byte("two"))
	l.Close()
	if err := <-done; err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if n != 2 || buf.String() != "one\ntwo\n" {
		t.Fatalf("streamed %d lines %q, want 2 lines \"one\\ntwo\\n\"", n, buf.String())
	}

	// A late subscriber still replays everything.
	buf.Reset()
	if n, err := l.Stream(context.Background(), &buf); err != nil || n != 2 {
		t.Fatalf("late Stream = (%d, %v)", n, err)
	}
	if buf.String() != "one\ntwo\n" {
		t.Fatalf("late replay = %q", buf.String())
	}

	// Appends after Close are dropped; Snapshot matches the stream bytes.
	l.Append([]byte("three"))
	if l.Len() != 2 {
		t.Fatalf("Len = %d after post-close append, want 2", l.Len())
	}
	if string(l.Snapshot()) != "one\ntwo\n" {
		t.Fatalf("Snapshot = %q", l.Snapshot())
	}
}

// TestLineLogStreamCancel checks a canceled subscriber detaches with
// ctx's error after receiving the history, without affecting the log.
func TestLineLogStreamCancel(t *testing.T) {
	l := NewLineLog()
	l.Append([]byte("one"))
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := l.Stream(ctx, &buf)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream = %v, want context.Canceled", err)
	}
	if buf.String() != "one\n" {
		t.Fatalf("canceled subscriber received %q, want the history", buf.String())
	}
}

// TestLineLogConcurrentSubscribers hammers one log from concurrent
// appenders and subscribers (run with -race): every subscriber must see
// the same lines in the same order.
func TestLineLogConcurrentSubscribers(t *testing.T) {
	l := NewLineLog()
	const lines = 50
	const clients = 4
	bufs := make([]bytes.Buffer, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Stream(context.Background(), &bufs[i]); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	for i := 0; i < lines; i++ {
		l.Append([]byte{'a' + byte(i%26)})
	}
	l.Close()
	wg.Wait()
	want := bufs[0].String()
	if n := bytes.Count([]byte(want), []byte("\n")); n != lines {
		t.Fatalf("client 0 received %d lines, want %d", n, lines)
	}
	for i := 1; i < clients; i++ {
		if got := bufs[i].String(); got != want {
			t.Errorf("client %d stream differs from client 0", i)
		}
	}
}

// TestLineLogStreamMetrics pins the instrumentation contract: lines a
// subscriber receives are attributed to the replay phase when they
// predate its subscription and to the tail phase otherwise, bytes count
// the framed NDJSON, and the subscriber gauge tracks attachment.
func TestLineLogStreamMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := StreamMetrics{
		Subscribers: reg.Gauge("stream_subscribers", ""),
		Bytes:       reg.Counter("stream_bytes_total", ""),
		ReplayLines: reg.Counter("stream_lines_total", "", "phase", "replay"),
		TailLines:   reg.Counter("stream_lines_total", "", "phase", "tail"),
	}
	l := NewLineLog()
	l.Instrument(m)
	l.Append([]byte("one"))

	// firstWrite closes once the subscriber has received the replayed
	// history, so the next Append is deterministically a tail line.
	w := &signalWriter{first: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := l.Stream(context.Background(), w)
		done <- err
	}()
	<-w.first
	if got := m.Subscribers.Value(); got != 1 {
		t.Errorf("subscriber gauge mid-stream = %d, want 1", got)
	}
	l.Append([]byte("two"))
	l.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := w.buf.String(); got != "one\ntwo\n" {
		t.Fatalf("streamed %q", got)
	}
	if got := m.ReplayLines.Value(); got != 1 {
		t.Errorf("replay lines = %d, want 1", got)
	}
	if got := m.TailLines.Value(); got != 1 {
		t.Errorf("tail lines = %d, want 1", got)
	}
	if got := m.Bytes.Value(); got != uint64(len("one\ntwo\n")) {
		t.Errorf("bytes = %d, want %d", got, len("one\ntwo\n"))
	}
	if got := m.Subscribers.Value(); got != 0 {
		t.Errorf("subscriber gauge after close = %d, want 0", got)
	}
}

// signalWriter closes first on its first Write.
type signalWriter struct {
	buf   bytes.Buffer
	first chan struct{}
	once  sync.Once
}

func (w *signalWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.first) })
	return w.buf.Write(p)
}

// TestLineLogStreamAllocsFlat streams closed logs of very different
// lengths: Stream writes each batch with one Write from one buffer, so
// its allocations must not grow with the number of lines.
func TestLineLogStreamAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		lines := make([][]byte, n)
		for i := range lines {
			lines[i] = []byte(`{"label":"bfs-po","scheme":"prodigy","cycles":123456}`)
		}
		l := NewLineLogFrom(lines)
		l.Close()
		return testing.AllocsPerRun(20, func() {
			if _, err := l.Stream(context.Background(), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(4096)
	if large > small {
		t.Fatalf("Stream allocates %v times for 4096 lines, %v for 8: allocations grow with the line count", large, small)
	}
	if small > 2 {
		t.Fatalf("Stream allocates %v times per closed log, want at most 2", small)
	}
}

// TestLineLogStreamShortWrite checks a failing writer: Stream returns the
// write error and counts, in lines and bytes, only the lines the writer
// took whole — as a line-at-a-time stream would have.
func TestLineLogStreamShortWrite(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := StreamMetrics{
		Bytes:       reg.Counter("stream_bytes_total", ""),
		ReplayLines: reg.Counter("stream_lines_total", "", "phase", "replay"),
		TailLines:   reg.Counter("stream_lines_total", "", "phase", "tail"),
	}
	l := NewLineLogFrom([][]byte{[]byte("one"), []byte("two"), []byte("three")})
	l.Instrument(m)
	l.Close()
	w := &shortWriter{limit: len("one\ntw")}
	n, err := l.Stream(context.Background(), w)
	if !errors.Is(err, errShort) || n != 1 {
		t.Fatalf("Stream = (%d, %v), want (1, %v)", n, err, errShort)
	}
	if got := m.ReplayLines.Value(); got != 1 {
		t.Errorf("replay lines = %d, want 1", got)
	}
	if got := m.Bytes.Value(); got != uint64(len("one\n")) {
		t.Errorf("bytes = %d, want %d", got, len("one\n"))
	}
}

var errShort = errors.New("short write")

// shortWriter accepts limit bytes, then fails.
type shortWriter struct{ limit int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	return n, errShort
}
