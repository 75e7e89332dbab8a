// Package telemetry is the campaign-observability layer: a dependency-free
// metrics registry (atomic counters and gauges plus timing histograms built
// on stats.Histogram), a bounded ring-buffer event trace, and the one debug
// HTTP handler (/metrics and pprof) both binaries serve.
//
// The paper's whole methodology is instrumentation — scope captures,
// emergency counts per 1k cycles, per-run characterization (Secs II–IV) —
// yet a long simulation campaign is otherwise blind until it finishes.
// Telemetry makes a running campaign observable without perturbing it: the
// instrumented packages declare named instruments (DeclareCounter and its
// kin) that Install binds to a registry, so an unbound instrument costs one
// atomic pointer load and a branch, and a bound one a single atomic add.
// Nothing in this package feeds back into any measurement: with telemetry
// on, every figure, table, and journal byte is bit-identical to a run with
// it off (gated by TestTelemetryOutputBitIdentical).
//
// All types are safe for concurrent use; sweep workers feed the same
// counters from many goroutines.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"voltsmooth/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (e.g. in-flight attempts).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Timing accumulates wall-time observations into a stats.Histogram of
// milliseconds. The histogram's exact tracked sum/min/max give an exact
// mean and extremes; quantiles carry the bucket quantization.
type Timing struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// timingBuckets covers [0, 10 minutes) at 250 ms resolution — wide enough
// for a full-scale experiment, fine enough for tiny-scale ones (whose exact
// mean/max come from the tracked sum and extremes, not the buckets).
func newTiming() *Timing {
	return &Timing{h: stats.NewHistogram(0, 600_000, 2400)}
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	t.mu.Lock()
	t.h.Add(ms)
	t.mu.Unlock()
}

// TimingStats is a point-in-time summary of a Timing.
type TimingStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Stats summarizes the observations so far.
func (t *Timing) Stats() TimingStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TimingStats{
		Count:  t.h.Total(),
		MeanMs: t.h.Mean(),
		P50Ms:  t.h.Quantile(0.5),
		P99Ms:  t.h.Quantile(0.99),
		MaxMs:  t.h.Max(),
	}
}

// Registry is a named collection of metrics. Lookups are get-or-create, so
// Install and consumers (the status line, the /metrics endpoint) agree on
// an instrument by name alone.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timings  map[string]*Timing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timings:  map[string]*Timing{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named timing, creating it on first use.
func (r *Registry) Timing(name string) *Timing {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timings[name]
	if !ok {
		t = newTiming()
		r.timings[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of every instrument, shaped for JSON
// export (GET /metrics serves exactly this).
type Snapshot struct {
	Counters map[string]uint64      `json:"counters"`
	Gauges   map[string]int64       `json:"gauges"`
	Timings  map[string]TimingStats `json:"timings"`
}

// Snapshot captures every instrument's current value. It holds the
// registry lock throughout: only Install and consumers look instruments
// up, never a hot path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Timings:  make(map[string]TimingStats, len(r.timings)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range r.timings {
		s.Timings[k] = v.Stats()
	}
	return s
}
