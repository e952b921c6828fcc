// Package telemetry is the service-side metrics layer for the sweep
// farm (internal/exp/farm, cmd/prodigy-serve): a concurrency-safe
// registry of monotonic counters, gauges, and wall-clock histograms with
// a Prometheus text-exposition writer (prometheus.go) and a JSON
// snapshot writer (varz.go).
//
// It is deliberately distinct from internal/obs: obs observes *simulated
// time* (cycles, interval metrics, trace events) and is bound by the
// simulator's determinism contract; telemetry observes the *service
// itself* in host wall-clock time — cache hit rates, queue depths,
// request latencies — and never feeds back into simulated results.
// docs/SERVING.md §Service telemetry catalogs the exported metrics.
//
// Histograms reuse stats.Histogram's bucket layout (512 exact bins plus
// power-of-two buckets), so the same machinery that bins simulated load
// latencies bins microsecond-scale service latencies. All metric methods
// are safe on nil receivers, so optional instrumentation sites need no
// guards.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"prodigy/internal/stats"
)

// kind discriminates the metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value (events, bytes, cells).
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta. Safe on a nil receiver.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depth, in-flight
// requests, subscribers).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative to decrement). Safe on a nil
// receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a concurrency-safe wall-clock latency histogram over
// stats.Histogram's fixed bucket layout. Samples are integers in
// whatever unit the metric name declares (the service convention is
// microseconds, suffix `_us`).
type Histogram struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(sample int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Record(sample)
	h.mu.Unlock()
}

// snapshot copies the underlying histogram for lock-free reduction.
func (h *Histogram) snapshot() stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// metric is one child (label combination) of a family.
type metric struct {
	// labels is the canonical rendered label block, `{k="v",...}` with
	// keys sorted, or "" for an unlabeled metric; pairs is the same
	// content as a sorted flat (key, value, ...) list for the JSON
	// snapshot.
	labels string
	pairs  []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every child sharing one metric name.
type family struct {
	name, help string
	kind       kind

	mu       sync.Mutex
	children map[string]*metric
}

// ordered returns the children sorted by label string, the exposition
// and snapshot order.
func (f *family) ordered() []*metric {
	f.mu.Lock()
	out := make([]*metric, 0, len(f.children))
	for _, m := range f.children {
		out = append(out, m)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; getting an
// already-registered metric returns the existing instance, so call
// sites may re-resolve by name instead of threading pointers.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter registered under name with the given
// label pairs (key, value, key, value, ...), creating it on first use.
// help is recorded on first registration of the family. Safe on a nil
// registry (returns a nil, no-op counter).
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.child(name, help, kindCounter, labelPairs)
	return m.c
}

// Gauge is Counter's analog for gauges.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.child(name, help, kindGauge, labelPairs)
	return m.g
}

// Histogram is Counter's analog for histograms.
func (r *Registry) Histogram(name, help string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.child(name, help, kindHistogram, labelPairs)
	return m.h
}

// child resolves (creating as needed) one family child. Misuse —
// re-registering a name as a different kind, or an odd label list — is
// a programming error and panics, mirroring expvar. Resolving an
// existing child allocates nothing: the label pairs are sorted and the
// lookup key rendered in stack buffers, and only a new child keeps
// copies of them.
func (r *Registry) child(name, help string, k kind, labelPairs []string) *metric {
	if len(labelPairs)%2 != 0 {
		// Format a copy: passing labelPairs itself would move every
		// caller's variadic slice to the heap.
		panic(fmt.Sprintf("telemetry: metric %q: odd label list %q", name, append([]string(nil), labelPairs...)))
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, children: map[string]*metric{}}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, k))
	}

	var pairBuf [8]string
	var keyBuf [128]byte
	pairs := sortPairs(append(pairBuf[:0], labelPairs...))
	key := appendLabels(keyBuf[:0], pairs)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[string(key)]
	if !ok {
		m = &metric{labels: string(key)}
		if len(pairs) > 0 {
			m.pairs = append([]string(nil), pairs...)
		}
		switch k {
		case kindCounter:
			m.c = &Counter{}
		case kindGauge:
			m.g = &Gauge{}
		case kindHistogram:
			m.h = &Histogram{}
		}
		f.children[m.labels] = m
	}
	return m
}

// ordered returns the families sorted by name, the exposition and
// snapshot order (the golden exposition test pins it).
func (r *Registry) ordered() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortPairs sorts the flat (key, value, ...) list by key in place,
// keeping pairs with equal keys in their given order, and returns it.
func sortPairs(pairs []string) []string {
	for i := 2; i+1 < len(pairs); i += 2 {
		for j := i; j >= 2 && pairs[j] < pairs[j-2]; j -= 2 {
			pairs[j], pairs[j+1], pairs[j-2], pairs[j-1] = pairs[j-2], pairs[j-1], pairs[j], pairs[j+1]
		}
	}
	return pairs
}

// appendLabels appends the `{k="v",...}` block of sorted pairs to dst,
// with values escaped per the Prometheus text format; no pairs append
// nothing.
func appendLabels(dst []byte, pairs []string) []byte {
	if len(pairs) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, pairs[i]...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, pairs[i+1])
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// appendEscaped appends a label value escaped for the text exposition
// format.
func appendEscaped(dst []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(dst, v...)
	}
	for _, r := range v {
		switch r {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}
