// Package telemetry is the experiment pipeline's observability core: a
// zero-dependency, concurrency-safe registry of named counters, gauges,
// and log-bucketed histograms, plus per-name span-duration histograms
// for wall-clock attribution across pipeline stages (synthesis recipes,
// optimization passes and flows, similarity metrics). Spans are opened
// with trace.Start, which records into these histograms when the span
// ends; this package only stores and renders them.
//
// The package is built around a nil-safe default registry: every
// instrumentation call site (Add, Observe, ...) is a cheap no-op — one
// atomic load, no allocation, no goroutines — until a caller explicitly
// opts in with Enable. This keeps the hot paths of the experiment
// behavior-neutral and essentially free when observability is off,
// which the harness test suite asserts.
//
// On top of the registry sit three consumers:
//
//   - Prometheus-text and JSON exposition (Registry.WritePrometheus,
//     Registry.WriteJSON),
//   - an optional HTTP debug server (Serve) exposing /metrics,
//     /debug/vars, and net/http/pprof, and
//   - a structured JSONL event log (EventLogger) for per-spec pipeline
//     progress.
package telemetry

import (
	"sync/atomic"
	"time"
)

// defaultReg holds the process-wide registry. It stays nil — and every
// package-level helper stays a no-op — until Enable is called.
var defaultReg atomic.Pointer[Registry]

// Enable installs (or returns the already-installed) default registry,
// turning on all package-level instrumentation.
func Enable() *Registry {
	for {
		if r := defaultReg.Load(); r != nil {
			return r
		}
		r := NewRegistry()
		if defaultReg.CompareAndSwap(nil, r) {
			return r
		}
	}
}

// Disable uninstalls the default registry, returning all package-level
// instrumentation to no-ops. Intended for tests.
func Disable() { defaultReg.Store(nil) }

// Default returns the installed registry, or nil when telemetry is off.
func Default() *Registry { return defaultReg.Load() }

// Add increments the named counter on the default registry.
func Add(name string, delta int64) { Default().Counter(name).Add(delta) }

// SetGauge sets the named gauge on the default registry.
func SetGauge(name string, v float64) { Default().Gauge(name).Set(v) }

// Observe records a value into the named histogram on the default
// registry.
func Observe(name string, v float64) { Default().Histogram(name).Observe(v) }

// now is swappable for deterministic exposition tests.
var now = time.Now
