package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a/b").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("g").Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge = %f, want 2.5", got)
	}
	// Same name returns the same instrument.
	if r.Counter("a/b") != c {
		t.Fatal("counter identity lost")
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{1, 4, 2, 8} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 15 || s.Min != 1 || s.Max != 8 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := s.Mean(); got != 3.75 {
		t.Fatalf("mean = %f, want 3.75", got)
	}
	var empty HistogramSnapshot
	if (*Histogram)(nil).Snapshot().Count != empty.Count {
		t.Fatal("nil snapshot should be empty")
	}
}

func TestBucketIndex(t *testing.T) {
	// Exact powers of two land on their own upper bound.
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-3, 0},
		{1, histExpShift},       // upper bound 2^0
		{2, histExpShift + 1},   // upper bound 2^1
		{1.5, histExpShift + 1}, // (1, 2]
		{0.5, histExpShift - 1},
		{0.75, histExpShift},
		{math.Inf(1), histBuckets - 1},
		{1e300, histBuckets - 1},
		{1e-300, 0},
	} {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every value must fall at or below its bucket's upper bound and
	// above the previous bound.
	for _, v := range []float64{1e-9, 3e-7, 0.004, 0.37, 1, 17, 900} {
		i := bucketIndex(v)
		if v > BucketUpper(i) {
			t.Errorf("v=%g above bucket %d upper %g", v, i, BucketUpper(i))
		}
		if i > 0 && v <= BucketUpper(i-1) {
			t.Errorf("v=%g should be in bucket %d or lower", v, i-1)
		}
	}
	if !math.IsInf(BucketUpper(histBuckets-1), 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

// TestConcurrentUpdates exercises every instrument from many goroutines;
// run with -race to verify lock-freedom is sound.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i%7) + 0.5)
				r.RecordSpan("s", time.Duration(i%5+1)*time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	const total = workers * iters
	if got := r.Counter("c").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if s := r.Histogram("h").Snapshot(); s.Count != total {
		t.Fatalf("histogram count = %d, want %d", s.Count, total)
	}
	bucketSum := int64(0)
	for _, c := range r.Histogram("h").Snapshot().Buckets {
		bucketSum += c
	}
	if bucketSum != total {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
	if s := r.SpanStats("s"); s.Count != total {
		t.Fatalf("span count = %d, want %d", s.Count, total)
	}
}

// TestNilRegistryNoOps asserts the disabled path: a nil registry (and
// the package-level helpers with no default installed) must never
// panic, allocate instruments, or start goroutines.
func TestNilRegistryNoOps(t *testing.T) {
	Disable()
	if Default() != nil {
		t.Fatal("default registry should start nil")
	}
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.RecordSpan("x", time.Second)
	r.Reset()
	if got := r.SummaryTable(); got != "" {
		t.Fatalf("nil summary = %q", got)
	}
	if n, s := r.SpanSeconds("x/"); n != 0 || s != 0 {
		t.Fatal("nil SpanSeconds must be zero")
	}
	// Package-level helpers with telemetry off.
	Add("x", 1)
	SetGauge("x", 1)
	Observe("x", 1)
	if Default() != nil {
		t.Fatal("no-op helpers must not install a registry")
	}
}

func TestEnableDisable(t *testing.T) {
	Disable()
	r := Enable()
	if r == nil || Default() != r || Enable() != r {
		t.Fatal("Enable must install one stable registry")
	}
	Add("k", 2)
	if r.Counter("k").Value() != 2 {
		t.Fatal("package helper did not hit default registry")
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable must uninstall")
	}
}
