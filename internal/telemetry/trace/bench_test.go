package trace

import (
	"context"
	"testing"

	"repro/internal/telemetry"
)

//go:noinline
func bareCall(ctx context.Context) context.Context { return ctx }

// BenchmarkBareCall is the baseline BenchmarkTraceDisabled is compared
// against: a no-op function call through the same shape.
func BenchmarkBareCall(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx = bareCall(ctx)
	}
	_ = ctx
}

// BenchmarkTraceDisabled measures the instrumentation cost with no
// collector installed and telemetry off — the production default. The
// acceptance bar is "within noise of a bare call": two atomic loads,
// zero allocations.
func BenchmarkTraceDisabled(b *testing.B) {
	SetCollector(nil)
	telemetry.Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "bench/disabled")
		sp.Attr("k", "v")
		sp.End()
		_ = c
	}
}

// BenchmarkTraceRegistryOnly measures a span with telemetry on and no
// collector: one allocation and one histogram update per span.
func BenchmarkTraceRegistryOnly(b *testing.B) {
	SetCollector(nil)
	telemetry.Enable()
	defer telemetry.Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "bench/registry_only")
		sp.Attr("k", "v")
		sp.End()
		_ = c
	}
}

// BenchmarkTraceEnabled is the comparison point: full span lifecycle
// with a collector installed.
func BenchmarkTraceEnabled(b *testing.B) {
	st := NewStore(StoreConfig{Capacity: 1024})
	SetCollector(st)
	defer SetCollector(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "bench/enabled")
		sp.Attr("k", "v")
		sp.End()
		_ = c
	}
}
