package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. All accessors are safe for concurrent
// use, and every method is nil-safe: calls on a nil *Registry (telemetry
// disabled) return nil instruments whose update methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*Histogram // span durations in seconds
	start    time.Time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*Histogram),
		start:    now(),
	}
}

// Reset discards all recorded metrics (but keeps the registry enabled).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
	r.spans = make(map[string]*Histogram)
	r.start = now()
}

// Uptime reports the time since the registry was created or reset.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return now().Sub(r.start)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// names returns the sorted keys of a metric map.
func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- Counter -----------------------------------------------------------

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. No-op on nil.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge -------------------------------------------------------------

// Gauge is a settable float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ---------------------------------------------------------

// histBuckets log-2 buckets span (2^-27, 2^12]: ~7.5ns to ~68min when
// observations are seconds, with underflow and overflow absorbed by the
// first and last bucket.
const (
	histBuckets  = 40
	histExpShift = 27 // bucket i upper bound = 2^(i-histExpShift)
)

// BucketUpper returns the inclusive upper bound of bucket i; the last
// bucket's bound is +Inf.
func BucketUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i-histExpShift)
}

// bucketIndex maps an observation to its log-2 bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return histBuckets - 1
	}
	// Smallest e with v <= 2^(e): ceil(log2(v)).
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	e := exp - 1
	if frac > 0.5 {
		e = exp
	}
	i := e + histExpShift
	if i < 0 {
		return 0
	}
	if i > histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// Histogram is a log-bucketed distribution with exact count, sum, min,
// and max. All updates are lock-free.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	minFloat(&h.minBits, v)
	maxFloat(&h.maxBits, v)
	h.buckets[bucketIndex(v)].Add(1)
}

// HistogramSnapshot is a consistent-enough point-in-time read of a
// histogram (individual fields are atomically read).
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Min     float64 // +Inf when empty
	Max     float64 // -Inf when empty
	Buckets [histBuckets]int64
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		s.Min = math.Inf(1)
		s.Max = math.Inf(-1)
		return s
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func minFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func maxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
