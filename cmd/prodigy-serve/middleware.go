package main

// HTTP service telemetry: one middleware wrapping the whole mux that
// counts requests per matched route, classifies response status, tracks
// in-flight requests, times request durations, and emits one structured
// (JSON, log/slog) access-log line per request stamped with a server-
// assigned request ID. Metric families are cataloged in docs/SERVING.md
// §Service telemetry.

import (
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/telemetry"
)

// reqID is the server-lifetime request-ID source.
var reqID atomic.Uint64

// statusWriter observes the status code and body size a handler
// produced. It forwards Flush so the sweep NDJSON streaming path keeps
// flushing per batch through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush keeps chunked NDJSON streaming working behind the wrapper
// (obs.LineLog.Stream flushes via a Flush() assertion).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTelemetry wraps next with the request-metrics and access-log
// layer. reg and logger may each be nil to disable that half. routes
// are the mux patterns next serves; each route's metric handles are
// resolved on its first request (so an idle route exports no series) and
// reused after, and requests matching none count under "unmatched".
func withTelemetry(next http.Handler, routes []string, reg *telemetry.Registry, logger *slog.Logger) http.Handler {
	inflight := reg.Gauge("http_in_flight",
		"HTTP requests currently being served.")
	// The table is complete before the first request and only read
	// after, so lookups take no lock.
	table := map[string]*routeMetrics{"unmatched": {reg: reg, route: "unmatched"}}
	for _, route := range routes {
		table[route] = &routeMetrics{reg: reg, route: route}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(reqID.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		inflight.Add(1)
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		inflight.Add(-1)

		// r.Pattern is the mux pattern that matched (e.g. "POST /sweeps"),
		// so one route label covers every {id}; unmatched requests (404s)
		// collapse into a single label instead of exploding cardinality.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		table[route].record(status, dur)
		if logger != nil {
			logger.Info("request",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", status,
				"bytes", sw.bytes,
				"dur_ms", float64(dur.Microseconds())/1e3,
				"remote", r.RemoteAddr,
			)
		}
	})
}

// requestID renders the n-th request's ID, "r" and at least six digits
// (r000042).
func requestID(n uint64) string {
	var b [32]byte
	i := len(b)
	for n > 0 || i > len(b)-6 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	i--
	b[i] = 'r'
	return string(b[i:])
}

// statusClasses are the http_responses_total class labels, indexed by
// status/100 (net/http rejects codes outside 100–999).
var statusClasses = [10]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// routeMetrics is one route's request metrics. Each handle is resolved
// from the registry the first time the route needs it, once.
type routeMetrics struct {
	reg   *telemetry.Registry
	route string

	once      sync.Once
	requests  *telemetry.Counter
	duration  *telemetry.Histogram
	responses [len(statusClasses)]atomic.Pointer[telemetry.Counter]
}

// record counts one request that ended with status after dur.
func (m *routeMetrics) record(status int, dur time.Duration) {
	m.once.Do(m.resolve)
	m.requests.Inc()
	class := &m.responses[status/100]
	c := class.Load()
	if c == nil {
		c = m.reg.Counter("http_responses_total",
			"HTTP responses, by matched route and status class.",
			"route", m.route, "class", statusClasses[status/100])
		class.Store(c)
	}
	c.Inc()
	m.duration.Observe(dur.Microseconds())
}

// resolve looks up the route's request counter and duration histogram.
func (m *routeMetrics) resolve() {
	m.requests = m.reg.Counter("http_requests_total",
		"HTTP requests served, by matched route.",
		"route", m.route)
	m.duration = m.reg.Histogram("http_request_duration_us",
		"HTTP request duration, microseconds, by matched route.",
		"route", m.route)
}
