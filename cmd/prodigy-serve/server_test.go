package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
	"prodigy/internal/obs"
	"prodigy/internal/telemetry"
)

// testCfg is the tiny machine the server tests sweep.
func testCfg() exp.Config {
	c := exp.Quick()
	c.Datasets = []string{"po"}
	c.Parallelism = 2
	return c
}

const testSpec = `{"algos":["bfs"],"schemes":["none","prodigy"]}`

func mustStop(t *testing.T, stop func() error) {
	t.Helper()
	if err := stop(); err != nil {
		t.Fatalf("server stop: %v", err)
	}
}

// TestCacheDirIsFileExitsOne boots the command on a -cache-dir that is a
// regular file: it must exit 1, naming the path, instead of serving.
func TestCacheDirIsFileExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run(&stderr, []string{"-cache-dir", path, "-addr", "127.0.0.1:0"}); code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), path) {
		t.Errorf("stderr %q does not name %s", stderr.String(), path)
	}
}

// TestServerSweepLifecycleAndRestart drives the full HTTP surface: POST
// streams NDJSON with the sweep headers, a duplicate POST replays from
// the cache, /diff compares the two finished sweeps, and a rebooted
// server over the same cache directory replays byte-identically without
// simulating and serves the first server's sweep from the journal byte
// for byte.
func TestServerSweepLifecycleAndRestart(t *testing.T) {
	dir := t.TempDir()
	inst, err := serveOnLoopback(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	base, stop := inst.url, inst.stop

	lines1, cached1, _, err := postSweepLines(base)
	if err != nil {
		mustStop(t, stop)
		t.Fatal(err)
	}
	if cached1 != 0 || len(lines1) != 2 {
		mustStop(t, stop)
		t.Fatalf("first sweep: %d lines, %d cached; want 2, 0", len(lines1), cached1)
	}
	for _, line := range lines1 {
		var s exp.RunSummary
		if err := json.Unmarshal([]byte(line), &s); err != nil || s.Abort != "" || s.Cycles <= 0 {
			mustStop(t, stop)
			t.Fatalf("streamed line %s: want a completed RunSummary (decode error %v)", line, err)
		}
	}

	// Status surfaces: list and single-sweep, including live progress.
	var statuses []farm.Status
	if err := getJSON(base+"/sweeps", &statuses); err != nil {
		mustStop(t, stop)
		t.Fatal(err)
	}
	if len(statuses) != 1 || !statuses[0].Done || statuses[0].Simulated != 2 {
		mustStop(t, stop)
		t.Fatalf("sweep list = %+v", statuses)
	}
	var st farm.Status
	if err := getJSON(base+"/sweeps/"+statuses[0].ID, &st); err != nil {
		mustStop(t, stop)
		t.Fatal(err)
	}
	if st.ID != statuses[0].ID || st.Cells != 2 {
		mustStop(t, stop)
		t.Fatalf("sweep status = %+v", st)
	}
	if st.InFlight != 0 || st.Queued != 0 || st.ElapsedMS <= 0 || st.EtaMS != 0 {
		mustStop(t, stop)
		t.Fatalf("finished sweep progress = %+v, want settled in_flight/queued and positive elapsed", st)
	}

	// Duplicate POST on the same server: full cache replay.
	lines2, cached2, _, err := postSweepLines(base)
	if err != nil {
		mustStop(t, stop)
		t.Fatal(err)
	}
	if cached2 != 2 || len(lines2) != 2 {
		mustStop(t, stop)
		t.Fatalf("duplicate sweep: %d lines, %d cached; want 2, 2", len(lines2), cached2)
	}

	// Diff the two finished sweeps: identical cells, no regressions even
	// at an absurdly tight threshold.
	var dr diffResponse
	if err := getJSON(base+"/diff?base=s001&new=s002&fail-on=ipc=0.0001", &dr); err != nil {
		mustStop(t, stop)
		t.Fatal(err)
	}
	if dr.Matched != 2 || dr.BaseOnly != 0 || dr.NewOnly != 0 || len(dr.Failures) != 0 {
		mustStop(t, stop)
		t.Fatalf("diff = %+v", dr)
	}
	stream1, err := fetchBody(base + "/sweeps/s001/stream")
	mustStop(t, stop)
	if err != nil {
		t.Fatal(err)
	}

	// Reboot over the same cache directory: byte-identical replay, every
	// cell a cache hit in the fresh registry.
	inst2, err := serveOnLoopback(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	lines3, cached3, id3, err := postSweepLines(inst2.url)
	var old diffResponse
	oldErr := getJSON(inst2.url+"/diff?base=s001&new="+id3, &old)
	stream1Again, streamErr := fetchBody(inst2.url + "/sweeps/s001/stream")
	countersErr := checkCacheCounters(inst2.url, 2, 2)
	mustStop(t, inst2.stop)
	if err != nil {
		t.Fatal(err)
	}
	if cached3 != 2 {
		t.Fatalf("rebooted server cached %d/2 cells", cached3)
	}
	if countersErr != nil {
		t.Fatalf("rebooted server: %v", countersErr)
	}
	if streamErr != nil || stream1Again != stream1 {
		t.Fatalf("s001 stream not byte-identical from the journal (%v):\nbefore: %q\nafter:  %q",
			streamErr, stream1, stream1Again)
	}
	// IDs continue across the restart, and the first server's sweeps stay
	// readable: /diff rebuilds s001 from the journal.
	if id3 != "s003" {
		t.Fatalf("rebooted server's first sweep is %q, want s003", id3)
	}
	if oldErr != nil || old.Matched != 2 {
		t.Fatalf("diff against the first server's sweep = %+v, %v", old, oldErr)
	}
	sort.Strings(lines1)
	sort.Strings(lines3)
	for i := range lines1 {
		if lines1[i] != lines3[i] {
			t.Fatalf("restart replay not byte-identical:\nlive:   %s\nreplay: %s", lines1[i], lines3[i])
		}
	}
}

// TestServerDetachStreamDelete submits a detached sweep, attaches a
// stream, cancels via DELETE, and checks the sweep settles with every
// cell accounted for (completed cells cached, the rest canceled).
func TestServerDetachStreamDelete(t *testing.T) {
	dir := t.TempDir()
	// Hold every cell until the DELETE has been answered, so the sweep is
	// still running when it is canceled (canceling a finished sweep is a
	// no-op); the timeout only unblocks a test that failed before that.
	deleted := make(chan struct{})
	cfg := testCfg()
	cfg.Obs = func(string) (*obs.Recorder, func() error, error) {
		select {
		case <-deleted:
		case <-time.After(30 * time.Second):
		}
		return nil, nil, nil
	}
	inst, err := serveOnLoopback(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := inst.url
	defer mustStop(t, inst.stop)

	resp, err := http.Post(base+"/sweeps?detach=1", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var st farm.Status
	body, _ := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detached POST = %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Sweep-Cached"); got != "0" {
		t.Fatalf("detached POST X-Sweep-Cached = %q, want 0", got)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("detached POST body %q: %v", body, err)
	}

	// Mid-sweep scrape: once a held cell is in flight, the telemetry
	// surface is present and well-formed.
	deadline := time.Now().Add(30 * time.Second)
	for {
		exposition, err := fetchBody(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := metricValue(exposition, "farm_cells_inflight"); n >= 1 {
			for _, typ := range []string{
				"# TYPE farm_cache_misses_total counter",
				"# TYPE farm_sweeps_active gauge",
				"# TYPE http_requests_total counter",
			} {
				if !strings.Contains(exposition, typ) {
					t.Errorf("mid-sweep /metrics is missing %q", typ)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell went in flight within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/sweeps/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := dresp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %s", dresp.Status)
	}
	close(deleted)

	// Attaching drains to end-of-stream once the (canceled) sweep
	// finishes; attached clients never block forever.
	sresp, err := http.Get(base + "/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(sresp.Body); err != nil {
		t.Fatal(err)
	}
	if cerr := sresp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err := getJSON(base+"/sweeps/"+st.ID, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || !st.Canceled {
		t.Fatalf("post-delete status = %+v, want done and canceled", st)
	}
	if st.Cached+st.Simulated+st.Aborted != st.Cells {
		t.Fatalf("cells unaccounted for: %+v", st)
	}
}

// TestServerRejectsBadRequests pins the error surface: malformed specs,
// unknown sweeps (including DELETE), and bad diff parameters.
func TestServerRejectsBadRequests(t *testing.T) {
	dir := t.TempDir()
	inst, err := serveOnLoopback(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	base := inst.url
	defer mustStop(t, inst.stop)

	for _, c := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"algos":["bfs"],"schemes":["none"],"bogus":1}`, http.StatusBadRequest},
		{`{"algos":["nosuch"],"schemes":["none"]}`, http.StatusBadRequest},
		{`{"algos":["bfs"],"schemes":[]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != c.want {
			t.Errorf("POST %q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	for _, url := range []string{
		base + "/sweeps/nosuch",
		base + "/sweeps/nosuch/stream",
		base + "/diff?base=nosuch&new=nosuch",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
	// DELETE of an unknown sweep must 404, never nil-deref (the old
	// handler read the sweep back unguarded after Cancel).
	req, err := http.NewRequest(http.MethodDelete, base+"/sweeps/nosuch", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := dresp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE /sweeps/nosuch = %d, want 404", dresp.StatusCode)
	}
}

// TestServerOversizedSpecIs413 pins the MaxBytesReader surface: a spec
// over the 1 MiB cap must yield 413 with a clear message, not a generic
// 400 "bad sweep spec".
func TestServerOversizedSpecIs413(t *testing.T) {
	dir := t.TempDir()
	inst, err := serveOnLoopback(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, inst.stop)

	huge := `{"algos":["` + strings.Repeat("x", 2<<20) + `"]}`
	resp, err := http.Post(inst.url+"/sweeps", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d (%s), want 413", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "limit") {
		t.Errorf("oversized POST body %q does not name the limit", body)
	}
}

// TestServerHealthzDrains pins the drain-aware liveness contract: 200
// "ok" while serving, 503 "draining" once shutdown begins.
func TestServerHealthzDrains(t *testing.T) {
	dir := t.TempDir()
	inst, err := serveOnLoopback(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, inst.stop)

	resp, err := http.Get(inst.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	// Begin shutdown (the farm is idle, so this settles immediately);
	// the HTTP listener is still up, and healthz must now say so.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inst.farm.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(inst.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz = %d %q, want 503 draining", resp.StatusCode, body)
	}
}

// TestServerMetricsEndpoints runs one live sweep and checks the whole
// telemetry surface: /metrics agrees with the sweep's outcome and the
// X-Sweep-Cached header, /varz parses as the JSON snapshot, responses
// carry request IDs, and the farm gauges settle back to zero.
func TestServerMetricsEndpoints(t *testing.T) {
	dir := t.TempDir()
	inst, err := serveOnLoopback(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	base := inst.url
	defer mustStop(t, inst.stop)

	lines, cached, _, err := postSweepLines(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || cached != 0 {
		t.Fatalf("sweep streamed %d lines, %d cached", len(lines), cached)
	}
	if err := checkCacheCounters(base, 2, cached); err != nil {
		t.Error(err)
	}

	body, err := fetchBody(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"farm_cache_misses_total":                   2,
		"farm_cache_hits_total":                     0,
		`farm_cells_total{state="simulated"}`:       2,
		"farm_sweeps_total":                         1,
		"farm_sweeps_active":                        0,
		"farm_queue_depth":                          0,
		"farm_cells_inflight":                       0,
		`stream_lines_total{phase="tail"}`:          2,
		`http_requests_total{route="POST /sweeps"}`: 1,
	} {
		if got, ok := metricValue(body, series); !ok || got != want {
			t.Errorf("metric %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	// Per-cell wall histograms and store latencies exist with samples.
	for _, series := range []string{
		`farm_cell_wall_us_count{algo="bfs",scheme="prodigy"}`,
		`farm_cell_wall_us_count{algo="bfs",scheme="none"}`,
		"farm_store_append_us_count",
		"farm_store_fsync_us_count",
		`http_request_duration_us_count{route="POST /sweeps"}`,
	} {
		if got, ok := metricValue(body, series); !ok || got < 1 {
			t.Errorf("metric %s = %v (present=%v), want >= 1", series, got, ok)
		}
	}

	// /varz: same registry as JSON, with histogram reductions.
	var snap []telemetry.FamilySnapshot
	if err := getJSON(base+"/varz", &snap); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range snap {
		names[f.Name] = true
	}
	for _, want := range []string{"farm_cache_misses_total", "farm_cell_wall_us", "http_requests_total", "stream_bytes_total"} {
		if !names[want] {
			t.Errorf("/varz is missing family %s", want)
		}
	}

	// Every response is stamped with a request ID.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response has no X-Request-Id header")
	}

	// pprof stays dark unless opted in.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}
}

// getJSON fetches url and decodes the JSON body into v, failing on any
// non-200 status.
func getJSON(url string, v any) error {
	body, err := fetchBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
}

// fetchBody GETs url and returns the body on a 200.
func fetchBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	body, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		return "", cerr
	}
	if rerr != nil {
		return "", rerr
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return string(body), nil
}

// postSweepLines submits testSpec and collects the streamed NDJSON lines
// plus the sweep headers.
func postSweepLines(baseURL string) (lines []string, cached int, id string, err error) {
	resp, err := http.Post(baseURL+"/sweeps", "application/json", strings.NewReader(testSpec))
	if err != nil {
		return nil, 0, "", err
	}
	defer func() { _ = resp.Body.Close() }() // body fully consumed below
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, 0, "", fmt.Errorf("POST /sweeps: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if _, err := fmt.Sscan(resp.Header.Get("X-Sweep-Cached"), &cached); err != nil {
		return nil, 0, "", fmt.Errorf("bad X-Sweep-Cached header %q", resp.Header.Get("X-Sweep-Cached"))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, cached, resp.Header.Get("X-Sweep-Id"), sc.Err()
}

// metricValue scans a Prometheus text exposition for the sample whose
// series (name plus rendered labels) is exactly series, returning its
// value.
func metricValue(exposition, series string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// checkCacheCounters asserts the farm's cache-hit/miss counters agree
// with what the sweep's X-Sweep-Cached header claimed.
func checkCacheCounters(baseURL string, cells, cachedHdr int) error {
	body, err := fetchBody(baseURL + "/metrics")
	if err != nil {
		return err
	}
	hits, ok := metricValue(body, "farm_cache_hits_total")
	if !ok {
		return fmt.Errorf("/metrics has no farm_cache_hits_total sample")
	}
	misses, ok := metricValue(body, "farm_cache_misses_total")
	if !ok {
		return fmt.Errorf("/metrics has no farm_cache_misses_total sample")
	}
	if int(hits) != cachedHdr || int(misses) != cells-cachedHdr {
		return fmt.Errorf("cache counters (hits=%v misses=%v) disagree with X-Sweep-Cached=%d of %d cells",
			hits, misses, cachedHdr, cells)
	}
	return nil
}

// instance is one loopback server generation.
type instance struct {
	url  string
	farm *farm.Farm
	stop func() error
}

// serveOnLoopback boots a server generation (newServer) on an ephemeral
// loopback port, access logs discarded. The stop function drains the
// farm and closes everything.
func serveOnLoopback(cacheDir string, cfg exp.Config) (*instance, error) {
	srv, f, err := newServer(cacheDir, cfg, slog.New(slog.NewJSONHandler(io.Discard, nil)), false)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ferr := f.Shutdown(ctx)
		serr := srv.Shutdown(ctx)
		<-done // Serve returned (ErrServerClosed)
		cerr := f.Close()
		if ferr != nil {
			return ferr
		}
		return errors.Join(serr, cerr)
	}
	return &instance{url: "http://" + ln.Addr().String(), farm: f, stop: stop}, nil
}
