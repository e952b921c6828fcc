package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/telemetry"
	"prodigy/internal/workloads"
)

// The serve-replay workload: a real prodigy-serve (-quick -j 1, fresh
// cache directory, access log off) on loopback. Set-up boots it and
// submits one cold sweep of the full quick grid; the measured phase is a
// closed loop with one client POSTing seeded random sub-grids of the
// cached cells, each checked byte-for-byte against the cold sweep.

// Each server generation replays a fixed number of requests: the count,
// not a duration, bounds its loop, so the server's retained-sweep heap
// (the farm never evicts finished sweeps) grows by the same amount on
// any host. -seconds sets how many generations a run measures, one per
// secondsPerServer, so the samples span the whole run instead of one
// host phase.
const (
	replaysPerServer = 1500
	secondsPerServer = 3
)

// quickDatasets is the dataset list prodigy-serve -quick expands a spec
// without "datasets" to (exp.Quick).
var quickDatasets = exp.Quick().Datasets

// spec is a POST /sweeps body.
type spec struct {
	Algos    []string `json:"algos"`
	Datasets []string `json:"datasets,omitempty"`
	Schemes  []string `json:"schemes"`
}

// expand lists a spec's cells as "label/scheme" in the farm's grid
// order, the order cached cells replay in.
func (sp spec) expand() []string {
	var out []string
	for _, a := range sp.Algos {
		ds := sp.Datasets
		if len(ds) == 0 {
			ds = quickDatasets
		}
		if !workloads.IsGraphAlgo(a) {
			ds = []string{""}
		}
		for _, d := range ds {
			label := a
			if d != "" {
				label += "-" + d
			}
			for _, s := range sp.Schemes {
				out = append(out, label+"/"+s)
			}
		}
	}
	return out
}

func allSchemes() []string {
	var out []string
	for _, s := range exp.Schemes() {
		out = append(out, string(s))
	}
	return out
}

// server is one prodigy-serve child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	done chan error
}

// startServer boots prodigy-serve on a free loopback port over a fresh
// cache directory and waits for /healthz to answer 200.
func startServer(o opts, client *http.Client, pprofOn bool) (*server, error) {
	if o.serveBin == "" {
		return nil, errors.New("serve-replay needs -serve-bin")
	}
	dir, err := os.MkdirTemp(o.work, "serve-cache-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	args := []string{"-quick", "-j", "1", "-access-log=false", "-cache-dir", dir, "-addr", "127.0.0.1:" + port}
	if pprofOn {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(o.serveBin, args...)
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s := &server{cmd: cmd, url: "http://127.0.0.1:" + port, dir: dir, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			closeRead(resp.Body)
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case werr := <-s.done:
			s.done <- werr // stop waits on it again
			return nil, errors.Join(fmt.Errorf("prodigy-serve exited during boot: %v", werr), s.stop())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("prodigy-serve did not become healthy"), s.stop())
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after a
// grace period) and removes its cache directory.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	var werr error
	select {
	case werr = <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		werr = <-s.done
	}
	if werr != nil {
		werr = fmt.Errorf("prodigy-serve exit: %w", werr)
	}
	return errors.Join(werr, os.RemoveAll(s.dir))
}

// freePort reserves an ephemeral loopback port and releases it for the
// server to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, errors.Join(err, ln.Close())
}

// summaryLine is the part of a streamed RunSummary the benchmark reads.
type summaryLine struct {
	Label   string  `json:"label"`
	Scheme  string  `json:"scheme"`
	Cycles  int64   `json:"cycles"`
	Retired int64   `json:"retired"`
	WallMS  float64 `json:"wall_ms"`
	Abort   string  `json:"abort"`
}

// coldSweep is the set-up sweep's outcome.
type coldSweep struct {
	lines           map[string][]byte // "label/scheme" → line with its newline
	wallsMS         []float64
	cycles, retired int64
}

// fillCold submits the full quick grid to a fresh server and indexes the
// streamed lines by cell.
func fillCold(client *http.Client, url string) (*coldSweep, error) {
	full := spec{Algos: workloads.AllAlgos, Schemes: allSchemes()}
	cells := full.expand()
	body, err := json.Marshal(full)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer closeRead(resp.Body)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sweep-Cells") != strconv.Itoa(len(cells)) {
		return nil, fmt.Errorf("cold sweep: status %d, %s cells", resp.StatusCode, resp.Header.Get("X-Sweep-Cells"))
	}
	c := &coldSweep{lines: map[string][]byte{}}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var s summaryLine
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("cold sweep line %q: %w", line, err)
		}
		if s.Abort != "" {
			return nil, fmt.Errorf("cold sweep: %s/%s aborted (%s)", s.Label, s.Scheme, s.Abort)
		}
		c.lines[s.Label+"/"+s.Scheme] = line
		c.wallsMS = append(c.wallsMS, s.WallMS)
		c.cycles += s.Cycles
		c.retired += s.Retired
	}
	if len(c.lines) != len(cells) {
		return nil, fmt.Errorf("cold sweep streamed %d distinct cells, want %d", len(c.lines), len(cells))
	}
	return c, nil
}

// replay is one prepared request and the exact body it must return.
type replay struct {
	body, want []byte
	cells      int
}

// makeReplays draws n random sub-grids of the quick grid from rng: a
// non-empty random subset of algorithms and of schemes, each in random
// order, and either the default datasets or a random non-empty subset.
func makeReplays(rng *rand.Rand, n int, cold *coldSweep) ([]replay, error) {
	subset := func(all []string) []string {
		s := slices.Clone(all)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s[:1+rng.IntN(len(s))]
	}
	out := make([]replay, n)
	for i := range out {
		sp := spec{Algos: subset(workloads.AllAlgos), Schemes: subset(allSchemes())}
		if rng.IntN(2) == 1 {
			sp.Datasets = subset(quickDatasets)
		}
		body, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		cells := sp.expand()
		var want []byte
		for _, c := range cells {
			want = append(want, cold.lines[c]...)
		}
		out[i] = replay{body: body, want: want, cells: len(cells)}
	}
	return out, nil
}

// send POSTs one replay, reads the body to its last byte and checks the
// answer: status 200, every cell served from the cache, and a body
// byte-identical to the cold sweep's lines for those cells.
func send(client *http.Client, url string, r replay) (time.Duration, bool) {
	start := time.Now()
	resp, err := client.Post(url+"/sweeps", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return time.Since(start), false
	}
	got, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	closeRead(resp.Body)
	n := strconv.Itoa(r.cells)
	return d, err == nil && resp.StatusCode == http.StatusOK &&
		resp.Header.Get("X-Sweep-Cells") == n && resp.Header.Get("X-Sweep-Cached") == n &&
		bytes.Equal(got, r.want)
}

// runReplays sends each replay once and returns the latencies.
func runReplays(client *http.Client, url string, rs []replay, t *tally) []time.Duration {
	lat := make([]time.Duration, len(rs))
	for i, r := range rs {
		d, ok := send(client, url, r)
		lat[i] = d
		t.check(ok)
	}
	return lat
}

// setUpServer is one set-up: boot to /healthz plus the cold fill.
func setUpServer(o opts, client *http.Client, pprofOn bool) (*server, *coldSweep, float64, error) {
	start := time.Now()
	srv, err := startServer(o, client, pprofOn)
	if err != nil {
		return nil, nil, 0, err
	}
	cold, err := fillCold(client, srv.url)
	if err != nil {
		return nil, nil, 0, errors.Join(err, srv.stop())
	}
	return srv, cold, since(start), nil
}

// runServe runs serve-replay: per server generation, set-up (boot and
// cold fill), a warm-up tenth, then the timed replays; latencies pool
// across generations, and set-up time and peak RSS are their medians.
func runServe(o opts) (map[string]float64, tally, error) {
	var t tally
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	servers, perServer := max(1, int(o.seconds)/secondsPerServer), replaysPerServer
	if o.tiny {
		servers, perServer = 1, 300
	}
	if o.trace {
		m, err := traceServe(o, client, perServer, &t)
		return m, t, err
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x5eed5eed))
	var setupS, rss, ms []float64
	var simRetired, simMS, busy float64
	var cycles int64
	for i := range servers {
		srv, cold, s, err := setUpServer(o, client, false)
		if err != nil {
			return nil, t, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, s)
		simRetired += float64(cold.retired)
		for _, w := range cold.wallsMS {
			simMS += w
		}
		cycles = cold.cycles
		lat, err := replayPhase(client, srv.url, rng, perServer, cold, nil, &t)
		var r float64
		if err == nil {
			r, err = peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
		}
		if err = errors.Join(err, srv.stop()); err != nil {
			return nil, t, err
		}
		rss = append(rss, r)
		for _, d := range lat {
			ms = append(ms, d.Seconds()*1e3)
			busy += d.Seconds()
		}
	}
	return map[string]float64{
		"setup_s":         median(setupS),
		"sim_minst_per_s": simRetired / simMS / 1e3,
		"sim_cycles":      float64(cycles),
		"op_per_s":        float64(len(ms)) / busy,
		"op_p50_ms":       median(ms),
		"op_p90_ms":       quantile(ms, 0.9),
		"peak_rss_mib":    median(rss),
	}, t, nil
}

// replayPhase sends n/10 warm-up replays and then n timed ones, all drawn
// from rng, and returns the timed latencies. beforeTimed, when set, runs
// between the two.
func replayPhase(client *http.Client, url string, rng *rand.Rand, n int, cold *coldSweep, beforeTimed func(), t *tally) ([]time.Duration, error) {
	warm, err := makeReplays(rng, max(1, n/10), cold)
	if err != nil {
		return nil, err
	}
	timed, err := makeReplays(rng, n, cold)
	if err != nil {
		return nil, err
	}
	runReplays(client, url, warm, t)
	if beforeTimed != nil {
		beforeTimed()
	}
	return runReplays(client, url, timed, t), nil
}

// traceServe is serve-replay's traced run: pairs of server generations
// (one pair per 10 s of -seconds) replay the same seeded requests, one
// untraced and one while its own CPU profiler (/debug/pprof/profile)
// samples the timed phase, alternating which goes first. The profiles
// merge into host_share.*, the last traced server supplies the service
// telemetry, and bench.trace_overhead is the traced over the untraced
// replay time. The simulator layers do no work in the measured phase and
// read 0.
func traceServe(o opts, client *http.Client, n int, t *tally) (map[string]float64, error) {
	pairs := max(1, int(o.seconds)/10)
	if o.tiny {
		pairs = 1
	}
	var (
		m                  map[string]float64
		profiles           []string
		untraced, withProf time.Duration // summed replay latencies
	)
	for i := range 2 * pairs {
		pair := i / 2
		traced := i%2 != pair%2
		srv, cold, _, err := setUpServer(o, client, traced)
		if err != nil {
			return nil, err
		}
		var profile func() error
		profPath := filepath.Join(o.work, fmt.Sprintf("serve-%d.pprof", pair))
		rng := rand.New(rand.NewPCG(o.seed, 0x5eed5eed+uint64(pair)))
		lat, err := replayPhase(client, srv.url, rng, n, cold, func() {
			if traced {
				profile = startProfile(client, srv.url, profPath, o.tiny)
			}
		}, t)
		if err == nil && traced {
			if err = profile(); err == nil {
				profiles = append(profiles, profPath)
				m, err = serviceMetrics(client, srv.url, cold)
			}
		}
		if err = errors.Join(err, srv.stop()); err != nil {
			return nil, err
		}
		for _, d := range lat {
			if traced {
				withProf += d
			} else {
				untraced += d
			}
		}
	}
	shares, err := hostShares(profiles...)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, shares)
	m["bench.trace_overhead"] = withProf.Seconds() / untraced.Seconds()
	return m, nil
}

// startProfile asks the server for a CPU profile covering the timed
// replays (which take about a second per thousand on a 2-vCPU host) and
// returns a function that waits for it to be saved at path.
func startProfile(client *http.Client, url, path string, tiny bool) (wait func() error) {
	seconds := 3
	if tiny {
		seconds = 1
	}
	done := make(chan error, 1)
	go func() {
		done <- fetchTo(client, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", url, seconds), path)
	}()
	return func() error {
		if err := <-done; err != nil {
			return fmt.Errorf("server profile: %w", err)
		}
		return nil
	}
}

// serviceMetrics fills the per-layer set for serve-replay from the
// server's telemetry (GET /varz, GET /sweeps); the simulator layers read
// 0.
func serviceMetrics(client *http.Client, url string, cold *coldSweep) (map[string]float64, error) {
	m := zeroLayer()
	var fams []telemetry.FamilySnapshot
	if err := getJSON(client, url+"/varz", &fams); err != nil {
		return nil, err
	}
	var sweeps []json.RawMessage
	if err := getJSON(client, url+"/sweeps", &sweeps); err != nil {
		return nil, err
	}
	posts := counter(fams, "http_requests_total", "route", "POST /sweeps")
	hits := counter(fams, "farm_cache_hits_total", "", "")
	misses := counter(fams, "farm_cache_misses_total", "", "")
	m["http.server_p50_us"] = histP50(fams, "http_request_duration_us", "route", "POST /sweeps")
	m["farm.cache_hit_ratio"] = hits / (hits + misses)
	// The cold sweep is one POST of simulated cells; the rest replay.
	m["farm.cells_per_request"] = counter(fams, "farm_cells_total", "state", "cached") / (posts - 1)
	m["stream.bytes_per_request"] = counter(fams, "stream_bytes_total", "", "") / posts
	m["farm.sweeps_retained"] = float64(len(sweeps))
	m["farm.cell_wall_us_p50"] = median(cold.wallsMS) * 1e3
	m["farm.store_append_us_p50"] = histP50(fams, "farm_store_append_us", "", "")
	m["farm.store_fsync_us_p50"] = histP50(fams, "farm_store_fsync_us", "", "")
	return m, nil
}

// closeRead closes a response body that was only read: its Close error
// carries nothing the caller acts on.
func closeRead(c io.Closer) { _ = c.Close() }

// fetchTo saves a GET response body to path.
func fetchTo(client *http.Client, url, path string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer closeRead(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	return errors.Join(err, f.Close())
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer closeRead(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sample finds a /varz family's child carrying the given label (any
// child when key is empty).
func sample(fams []telemetry.FamilySnapshot, name, key, val string) *telemetry.Sample {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for i, s := range f.Samples {
			if key == "" || s.Labels[key] == val {
				return &f.Samples[i]
			}
		}
	}
	return nil
}

func counter(fams []telemetry.FamilySnapshot, name, key, val string) float64 {
	if s := sample(fams, name, key, val); s != nil && s.Value != nil {
		return float64(*s.Value)
	}
	return 0
}

func histP50(fams []telemetry.FamilySnapshot, name, key, val string) float64 {
	if s := sample(fams, name, key, val); s != nil && s.Hist != nil {
		return float64(s.Hist.P50)
	}
	return 0
}
