package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
)

// smokeSpec is the quick grid the smoke test sweeps: two schemes of one
// tiny workload — enough to exercise simulation, caching, and replay in
// a couple of seconds.
const smokeSpec = `{"algos":["bfs"],"datasets":["po"],"schemes":["none","prodigy"]}`

// postSweepLines submits a sweep and collects the streamed NDJSON lines
// plus the sweep headers.
func postSweepLines(baseURL string) (lines []string, cached int, id string, err error) {
	resp, err := http.Post(baseURL+"/sweeps", "application/json", strings.NewReader(smokeSpec))
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

// postDetached submits the smoke sweep with ?detach=1 and returns its
// accepted status plus the X-Sweep-Cached header.
func postDetached(baseURL string) (st farm.Status, cached int, err error) {
	resp, err := http.Post(baseURL+"/sweeps?detach=1", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		return st, 0, err
	}
	body, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		return st, 0, cerr
	}
	if rerr != nil {
		return st, 0, rerr
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, 0, fmt.Errorf("POST /sweeps?detach=1: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if _, err := fmt.Sscan(resp.Header.Get("X-Sweep-Cached"), &cached); err != nil {
		return st, 0, fmt.Errorf("bad X-Sweep-Cached header %q", resp.Header.Get("X-Sweep-Cached"))
	}
	return st, cached, json.Unmarshal(body, &st)
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

// fetchJSON GETs url and decodes the JSON body into v.
func fetchJSON(url string, v any) error {
	body, err := fetchBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
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

// runSmoke is the self-contained `make serve-smoke` body: two server
// generations over one temporary cache directory prove that a sweep
// streams well-formed NDJSON, persists its cells, replays them
// byte-identically after a full restart without re-simulating, that the
// restarted server continues sweep IDs and still serves the first
// server's sweep byte-identically from the journal, and that the service
// telemetry (/metrics) agrees with the sweep headers — scraped both
// mid-sweep and after completion.
func runSmoke(stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "serve-smoke: FAIL: "+format+"\n", args...)
		return 1
	}
	dir, err := os.MkdirTemp("", "prodigy-serve-smoke-*")
	if err != nil {
		return fail("temp dir: %v", err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup

	cfg := exp.Quick()
	cfg.Datasets = []string{"po"}
	cfg.Parallelism = 2

	// Generation 1: simulate and cache. The sweep is detached so the
	// smoke can scrape /metrics while cells are in flight.
	inst1, err := serveOnLoopback(dir, cfg)
	if err != nil {
		return fail("boot: %v", err)
	}
	st, cached, err := postDetached(inst1.url)
	if err != nil {
		_ = inst1.stop()
		return fail("first sweep: %v", err)
	}
	if cached != 0 {
		_ = inst1.stop()
		return fail("fresh cache reported %d cached cells", cached)
	}
	// Mid-sweep scrapes: the telemetry surface must be present and
	// well-formed while simulations run (at least one scrape happens
	// before the done check can observe completion).
	for {
		body, merr := fetchBody(inst1.url + "/metrics")
		if merr != nil {
			_ = inst1.stop()
			return fail("mid-sweep /metrics: %v", merr)
		}
		for _, series := range []string{
			"# TYPE farm_cache_misses_total counter",
			"# TYPE farm_sweeps_active gauge",
			"# TYPE http_requests_total counter",
		} {
			if !strings.Contains(body, series) {
				_ = inst1.stop()
				return fail("mid-sweep /metrics is missing %q", series)
			}
		}
		var cur farm.Status
		if serr := fetchJSON(inst1.url+"/sweeps/"+st.ID, &cur); serr != nil {
			_ = inst1.stop()
			return fail("mid-sweep status: %v", serr)
		}
		if cur.Done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Collect the finished stream (full replay of the sweep's history).
	firstBody, err := fetchBody(inst1.url + "/sweeps/" + st.ID + "/stream")
	if err != nil {
		_ = inst1.stop()
		return fail("first sweep stream: %v", err)
	}
	first := nonEmptyLines(firstBody)
	if err := checkCacheCounters(inst1.url, st.Cells, cached); err != nil {
		_ = inst1.stop()
		return fail("first sweep: %v", err)
	}
	if reqs, ok := metricsRequestCount(inst1.url); !ok || reqs < 1 {
		_ = inst1.stop()
		return fail("http_requests_total for POST /sweeps missing or zero (got %v, %v)", reqs, ok)
	}
	if serr := inst1.stop(); serr != nil {
		return fail("first shutdown: %v", serr)
	}
	if len(first) != 2 {
		return fail("first sweep streamed %d lines, want 2: %v", len(first), first)
	}
	for _, line := range first {
		var s exp.RunSummary
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return fail("unparsable summary %q: %v", line, err)
		}
		if s.Abort != "" || s.Cycles <= 0 {
			return fail("degenerate summary: %s", line)
		}
	}

	// Generation 2: a fresh process image over the same cache directory
	// must replay both cells byte-identically without simulating, and its
	// (fresh) registry must count both cells as cache hits.
	inst2, err := serveOnLoopback(dir, cfg)
	if err != nil {
		return fail("reboot: %v", err)
	}
	second, cached2, id2, err := postSweepLines(inst2.url)
	if err != nil {
		_ = inst2.stop()
		return fail("replay sweep: %v", err)
	}
	if cached2 != 2 {
		_ = inst2.stop()
		return fail("restarted server cached %d/2 cells", cached2)
	}
	if id2 == "" || id2 == st.ID {
		_ = inst2.stop()
		return fail("restarted server's sweep got ID %q, want a fresh one after %s", id2, st.ID)
	}
	// The first server's sweep is served from the journal, byte for byte.
	oldBody, err := fetchBody(inst2.url + "/sweeps/" + st.ID + "/stream")
	if err != nil {
		_ = inst2.stop()
		return fail("first server's sweep after restart: %v", err)
	}
	if oldBody != firstBody {
		_ = inst2.stop()
		return fail("first server's sweep %s not byte-identical after restart:\n  before: %q\n  after:  %q",
			st.ID, firstBody, oldBody)
	}
	if err := checkCacheCounters(inst2.url, 2, cached2); err != nil {
		_ = inst2.stop()
		return fail("replay sweep: %v", err)
	}
	if serr := inst2.stop(); serr != nil {
		return fail("second shutdown: %v", serr)
	}
	// The first stream is in completion order, the replay in grid order;
	// compare as sets of byte-identical lines.
	a := append([]string(nil), first...)
	b := append([]string(nil), second...)
	sort.Strings(a)
	sort.Strings(b)
	if len(b) != len(a) {
		return fail("replay streamed %d lines, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fail("replay not byte-identical:\n  first:  %s\n  replay: %s", a[i], b[i])
		}
	}
	fmt.Fprintf(stdout, "serve-smoke: ok (2 cells simulated once, cached replay byte-identical across restart, "+
		"%s served byte-identically from the journal, restart continued with %s, /metrics consistent with X-Sweep-Cached)\n",
		st.ID, id2)
	return 0
}

// nonEmptyLines splits an NDJSON body into its non-empty lines.
func nonEmptyLines(body string) []string {
	var lines []string
	for _, line := range strings.Split(body, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			lines = append(lines, line)
		}
	}
	return lines
}

// metricsRequestCount reads http_requests_total for the sweep-submit
// route.
func metricsRequestCount(baseURL string) (float64, bool) {
	body, err := fetchBody(baseURL + "/metrics")
	if err != nil {
		return 0, false
	}
	return metricValue(body, `http_requests_total{route="POST /sweeps"}`)
}
