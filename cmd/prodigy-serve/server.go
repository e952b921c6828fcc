package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"

	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
	"prodigy/internal/obs"
	"prodigy/internal/statdiff"
	"prodigy/internal/telemetry"
)

// server is the HTTP/JSON front end over a farm. Routes
// (docs/SERVING.md):
//
//	POST   /sweeps            submit a sweep; streams its NDJSON unless ?detach=1
//	GET    /sweeps            list the retained sweeps' statuses
//	GET    /sweeps/{id}       one sweep's status + live progress (ETA)
//	GET    /sweeps/{id}/stream attach to a sweep's NDJSON (replay + live tail)
//	DELETE /sweeps/{id}       cancel a sweep's in-flight and queued cells
//	GET    /diff              compare two finished sweeps with the
//	                          prodigy-stat diff reducer
//	GET    /metrics           Prometheus text exposition (service telemetry)
//	GET    /varz              JSON snapshot of the same registry
//	GET    /healthz           liveness: 200 "ok", 503 "draining" during shutdown
//	/debug/pprof/...          runtime profiles (only with -pprof)
type server struct {
	farm *farm.Farm
	reg  *telemetry.Registry
}

// newServer boots one server generation over cacheDir: the farm, with a
// fresh telemetry registry serving /metrics and /varz, behind an HTTP
// server that routes to it through the telemetry middleware. accessLog
// receives one structured line per request (nil disables); pprof exposes
// /debug/pprof (opt-in: profiles can stall a loaded service and leak
// operational detail). The caller closes the farm once both are shut
// down.
func newServer(cacheDir string, cfg exp.Config, accessLog *slog.Logger, pprofOn bool) (*http.Server, *farm.Farm, error) {
	reg := telemetry.NewRegistry()
	f, err := farm.New(farm.Config{Exp: cfg, Dir: cacheDir, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	s := &server{farm: f, reg: reg}
	mux := http.NewServeMux()
	var routes []string
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, h)
		routes = append(routes, pattern)
	}
	handle("GET /healthz", s.healthz)
	handle("POST /sweeps", s.postSweep)
	handle("GET /sweeps", s.listSweeps)
	handle("GET /sweeps/{id}", s.getSweep)
	handle("GET /sweeps/{id}/stream", s.streamSweep)
	handle("DELETE /sweeps/{id}", s.deleteSweep)
	handle("GET /diff", s.diff)
	handle("GET /metrics", s.metrics)
	handle("GET /varz", s.varz)
	if pprofOn {
		handle("GET /debug/pprof/", pprof.Index)
		handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		handle("GET /debug/pprof/profile", pprof.Profile)
		handle("GET /debug/pprof/symbol", pprof.Symbol)
		handle("GET /debug/pprof/trace", pprof.Trace)
	}
	return &http.Server{Handler: withTelemetry(mux, routes, reg, accessLog)}, f, nil
}

// healthz is drain-aware: once shutdown begins the server is still
// serving (attached streams keep draining) but must not receive new
// traffic, so load balancers get 503 instead of a lying 200.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.farm.ShuttingDown() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// metrics serves the Prometheus text exposition of the service
// registry.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		_ = err // headers are out; nothing more to report
	}
}

// varz serves the JSON snapshot of the same registry.
func (s *server) varz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteJSON(w); err != nil {
		_ = err
	}
}

// writeStatusJSON emits one sweep status (or any JSON value) with code.
func writeStatusJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is already out; nothing to do beyond noting it.
		_ = err
	}
}

// postSweep submits a sweep. By default the response is the sweep's
// NDJSON (cached replays first, then live completions; see sendLog) and
// the submitting client owns the sweep's lifecycle: disconnecting
// before completion cancels the in-flight cells. With ?detach=1 the
// sweep runs server-side and the response is its status; attach
// separately via GET /sweeps/{id}/stream (detached streams never cancel
// on disconnect).
func (s *server) postSweep(w http.ResponseWriter, r *http.Request) {
	var spec farm.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		// An oversized body is the client's clearly-diagnosable problem,
		// not a malformed spec: surface the cap instead of a generic 400.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("sweep spec exceeds the %d-byte limit", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad sweep spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	sw, err := s.farm.Start(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, farm.ErrShutdown) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	st := sw.Status()
	w.Header().Set("X-Sweep-Id", sw.ID)
	w.Header().Set("X-Sweep-Cells", strconv.Itoa(st.Cells))
	w.Header().Set("X-Sweep-Cached", strconv.Itoa(st.Cached))
	if r.URL.RawQuery != "" && r.URL.Query().Get("detach") != "" {
		writeStatusJSON(w, http.StatusAccepted, st)
		return
	}
	if err := sendLog(r.Context(), w, sw.Log); err != nil {
		// The submitting client went away mid-sweep: cancel the cells it
		// was waiting on (completed cells stay cached).
		if cerr := s.farm.Cancel(sw.ID); cerr != nil {
			_ = cerr // the sweep vanished; nothing to cancel
		}
	}
}

// sendLog sends a sweep's NDJSON log as the response body. A log that is
// already closed (an all-cached or finished sweep) goes out whole, with
// a Content-Length. For an open one the headers go out at once, with
// chunked transfer, and each batch of lines is flushed as it arrives
// until the sweep finishes. Either way the response completes when the
// handler returns, after the telemetry middleware has counted it. It
// returns Stream's error: the client went away, or the write failed.
func sendLog(ctx context.Context, w http.ResponseWriter, l *obs.LineLog) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if size, closed := l.Size(); closed {
		w.Header().Set("Content-Length", strconv.Itoa(size))
	} else if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	_, err := l.Stream(ctx, w)
	return err
}

func (s *server) listSweeps(w http.ResponseWriter, r *http.Request) {
	writeStatusJSON(w, http.StatusOK, s.farm.List())
}

func (s *server) getSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.farm.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	writeStatusJSON(w, http.StatusOK, sw.Status())
}

// streamSweep attaches to a sweep's NDJSON: the full history replays
// first, then live completions, closing when the sweep finishes. Any
// number of concurrent clients receive byte-identical streams; an
// attached client disconnecting never cancels the sweep.
func (s *server) streamSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.farm.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	if err := sendLog(r.Context(), w, sw.Log); err != nil {
		_ = err // client went away; the sweep keeps running
	}
}

func (s *server) deleteSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve the sweep first, then cancel through it: the old
	// Cancel-then-Get pair could nil-deref if the sweep vanished between
	// the two lookups.
	sw, ok := s.farm.Get(id)
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	if err := s.farm.Cancel(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeStatusJSON(w, http.StatusAccepted, sw.Status())
}

// diffResponse is the GET /diff payload.
type diffResponse struct {
	Base     string   `json:"base"`
	New      string   `json:"new"`
	Matched  int      `json:"matched"`
	BaseOnly int      `json:"base_only"`
	NewOnly  int      `json:"new_only"`
	Table    string   `json:"table"`
	Failures []string `json:"failures,omitempty"`
}

// diff compares two finished sweeps with the prodigy-stat diff reducer
// (internal/statdiff): GET /diff?base=s001&new=s002[&fail-on=ipc=2,...].
// Threshold breaches return 409 so CI can gate on the status code alone,
// with the rendered table and failure list in the JSON body either way.
func (s *server) diff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	baseSweep, ok := s.farm.Get(q.Get("base"))
	if !ok {
		http.Error(w, "no such sweep: "+q.Get("base"), http.StatusNotFound)
		return
	}
	newSweep, ok := s.farm.Get(q.Get("new"))
	if !ok {
		http.Error(w, "no such sweep: "+q.Get("new"), http.StatusNotFound)
		return
	}
	if !baseSweep.Status().Done || !newSweep.Status().Done {
		http.Error(w, "both sweeps must be finished", http.StatusConflict)
		return
	}
	specs, err := statdiff.ParseFailOn(q.Get("fail-on"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	baseRuns, err := baseSweep.Summaries()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	newRuns, err := newSweep.Summaries()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	res := statdiff.Diff(baseRuns, newRuns, specs)
	code := http.StatusOK
	if len(res.Failures) > 0 {
		code = http.StatusConflict
	}
	writeStatusJSON(w, code, diffResponse{
		Base:     baseSweep.ID,
		New:      newSweep.ID,
		Matched:  res.Matched,
		BaseOnly: res.BaseOnly,
		NewOnly:  res.NewOnly,
		Table:    res.Table.String(),
		Failures: res.Failures,
	})
}
