package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"prodigy/internal/obs"
)

// cachedReplayAllocs is the allocation ceiling of one all-cached POST
// /sweeps through the whole handler, telemetry middleware included,
// with the httptest request and recorder counted in (86 before route
// handles were resolved once, spec expansion lost its maps and the line
// log its per-call buffer).
const cachedReplayAllocs = 55

// cachedHandler boots a server generation (access log off, as
// perfbench's serve-replay runs it) over a fresh cache directory, fills
// the cache with testSpec's cells, and returns the server's handler.
func cachedHandler(tb testing.TB) http.Handler {
	tb.Helper()
	srv, f, err := newServer(tb.TempDir(), testCfg(), nil, false)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := f.Close(); err != nil {
			tb.Error(err)
		}
	})
	if rec := postSpec(srv.Handler); rec.Code != http.StatusOK {
		tb.Fatalf("cold POST /sweeps = %d: %s", rec.Code, rec.Body)
	}
	if rec := postSpec(srv.Handler); rec.Header().Get("X-Sweep-Cached") != "2" {
		tb.Fatalf("second POST /sweeps replayed %q cells, want 2", rec.Header().Get("X-Sweep-Cached"))
	}
	return srv.Handler
}

// postSpec serves one POST /sweeps of testSpec and returns the recorded
// response; the sweep has finished when it returns.
func postSpec(h http.Handler) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(testSpec)))
	return rec
}

// TestCachedReplayAllocs pins what one cached replay allocates: the
// route's metric handles are resolved once, spec expansion builds no
// maps, and the line log reuses its batch buffer.
func TestCachedReplayAllocs(t *testing.T) {
	h := cachedHandler(t)
	allocs := testing.AllocsPerRun(50, func() { postSpec(h) })
	t.Logf("cached replay: %v allocs", allocs)
	if limit := float64(cachedReplayAllocs + raceAllocSlack); allocs > limit {
		t.Fatalf("cached replay allocates %v times, want at most %v", allocs, limit)
	}
}

// BenchmarkCachedReplay serves all-cached POST /sweeps requests through
// the handler, telemetry middleware included, without a network.
func BenchmarkCachedReplay(b *testing.B) {
	h := cachedHandler(b)
	b.ReportAllocs()
	for b.Loop() {
		postSpec(h)
	}
}

// TestRequestIDFormat pins the X-Request-Id format: "r" and the request
// number, zero-padded to at least six digits.
func TestRequestIDFormat(t *testing.T) {
	for _, n := range []uint64{0, 1, 42, 999999, 1000000, 1<<64 - 1} {
		if got, want := requestID(n), fmt.Sprintf("r%06d", n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestSweepResponseFraming checks both framings of a sweep's NDJSON: a
// sweep with live cells streams chunked, while a finished sweep's stream
// and an all-cached POST go out with a Content-Length and no transfer
// encoding. The bodies are the same lines either way, and each response
// is counted by the time its client has read it.
func TestSweepResponseFraming(t *testing.T) {
	// Hold every cell until the live stream is attached, so the sweep is
	// still running when its response starts.
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	cfg := testCfg()
	cfg.Obs = func(string) (*obs.Recorder, func() error, error) {
		select {
		case <-held:
		case <-time.After(30 * time.Second):
		}
		return nil, nil, nil
	}
	inst, err := serveOnLoopback(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := inst.url
	t.Cleanup(func() { mustStop(t, inst.stop) })
	t.Cleanup(release)

	resp, err := http.Post(base+"/sweeps?detach=1", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get("X-Sweep-Id")
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}

	type result struct {
		resp *http.Response
		body string
		err  error
	}
	get := func(url string) result {
		resp, err := http.Get(url)
		if err != nil {
			return result{err: err}
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		return result{resp, string(body), err}
	}
	live := make(chan result, 1)
	go func() { live <- get(base + "/sweeps/" + id + "/stream") }()
	// Release the cells only once the stream is attached to the open log.
	deadline := time.Now().Add(30 * time.Second)
	for {
		exposition, err := fetchBody(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := metricValue(exposition, "stream_subscribers"); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the live stream did not attach within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	release()
	l := <-live
	if l.err != nil {
		t.Fatal(l.err)
	}
	if !slices.Equal(l.resp.TransferEncoding, []string{"chunked"}) || l.resp.ContentLength != -1 {
		t.Errorf("live stream: Transfer-Encoding %q, Content-Length %d; want chunked without a length",
			l.resp.TransferEncoding, l.resp.ContentLength)
	}
	if n := strings.Count(l.body, "\n"); n != 2 {
		t.Fatalf("live stream sent %d lines, want 2", n)
	}

	finished := get(base + "/sweeps/" + id + "/stream")
	posted := func() result {
		resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(testSpec))
		if err != nil {
			return result{err: err}
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		return result{resp, string(body), err}
	}()
	for name, r := range map[string]result{"finished stream": finished, "cached POST": posted} {
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if r.resp.TransferEncoding != nil || r.resp.ContentLength != int64(len(r.body)) {
			t.Errorf("%s: Transfer-Encoding %q, Content-Length %d; want none and %d",
				name, r.resp.TransferEncoding, r.resp.ContentLength, len(r.body))
		}
	}
	if finished.body != l.body {
		t.Errorf("finished stream %q differs from the live one %q", finished.body, l.body)
	}
	if !sameLines(posted.body, l.body) {
		t.Errorf("cached POST %q does not replay the live lines %q", posted.body, l.body)
	}
	if got := posted.resp.Header.Get("X-Sweep-Cached"); got != "2" {
		t.Errorf("cached POST X-Sweep-Cached = %q, want 2", got)
	}
	// A response ends only after the middleware has counted it: both
	// POSTs are in the next scrape.
	exposition, err := fetchBody(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := metricValue(exposition, `http_requests_total{route="POST /sweeps"}`); n != 2 {
		t.Errorf(`http_requests_total{route="POST /sweeps"} = %v right after the cached POST, want 2`, n)
	}
}

// sameLines reports whether two NDJSON bodies hold the same lines in
// any order (a live sweep streams in completion order, a replay in grid
// order).
func sameLines(a, b string) bool {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	slices.Sort(la)
	slices.Sort(lb)
	return slices.Equal(la, lb)
}
