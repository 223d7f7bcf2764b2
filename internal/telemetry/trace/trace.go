// Package trace is the causal layer on top of internal/telemetry: a
// zero-dependency request-tracing model with W3C traceparent
// propagation, parent/child span trees, key/value attributes, and a
// bounded in-memory TraceStore with tail-based retention (see store.go).
//
// Where the telemetry registry's span histograms answer "how long does
// operation X take in aggregate", a trace answers "what did *this*
// request spend its time on": every span carries a TraceID shared by
// everything the request touched — the client call, the handler, the
// queue wait, the async job it spawned, the spill write the job
// performed — and a parent SpanID stitching them into one tree,
// retrievable from /v1/debug/traces/{id} long after the request
// finished.
//
// Start is the only way to open a span, and it has three modes:
//
//   - telemetry registry and collector both off: Start returns
//     (ctx, nil) after two atomic loads, with no allocation;
//   - registry on, no collector: Start returns a registry-only span
//     whose End records the duration into the registry's span
//     histogram under the span name (what StageSummary, SummaryTable
//     and /metrics read), while ctx comes back unchanged and attributes,
//     events and Fail are dropped;
//   - collector installed: the span joins a trace and, when ended, is
//     recorded both in the store and in the registry histogram.
//
// A non-nil span therefore does not mean "traced": code that exports a
// trace identity checks Span.Context().Valid() instead.
package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/telemetry"
)

// TraceID identifies one causally connected request tree (16 bytes,
// rendered as 32 lowercase hex digits — the W3C trace-id field).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 lowercase hex digits. The all-zero ID is
// rejected (the W3C invalid value).
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 2*len(t) {
		return TraceID{}, fmt.Errorf("trace: trace ID %q: want %d hex digits", s, 2*len(t))
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace: trace ID %q: %v", s, err)
	}
	if t.IsZero() {
		return TraceID{}, fmt.Errorf("trace: trace ID %q is the invalid all-zero value", s)
	}
	return t, nil
}

// SpanContext is the propagated identity of a span: enough to parent a
// remote child and to find the trace later, nothing more.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// --- ID generation -----------------------------------------------------

// idSource is a process-wide PRNG for trace/span IDs, seeded once from
// crypto/rand so concurrent daemons never collide. IDs need uniqueness,
// not unpredictability, so a locked math/rand keeps Start cheap.
var idSource = struct {
	mu  sync.Mutex
	rng *rand.Rand
}{rng: rand.New(rand.NewSource(cryptoSeed()))}

func cryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; degrade to a
		// fixed seed rather than failing instrumentation.
		return 1
	}
	return int64(binary.LittleEndian.Uint64(b[:]) & 0x7FFFFFFFFFFFFFFF)
}

func newTraceID() TraceID {
	var t TraceID
	idSource.mu.Lock()
	binary.LittleEndian.PutUint64(t[:8], idSource.rng.Uint64())
	binary.LittleEndian.PutUint64(t[8:], idSource.rng.Uint64())
	idSource.mu.Unlock()
	if t.IsZero() {
		t[0] = 1
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	idSource.mu.Lock()
	binary.LittleEndian.PutUint64(s[:], idSource.rng.Uint64())
	idSource.mu.Unlock()
	if s.IsZero() {
		s[0] = 1
	}
	return s
}

// --- collector ---------------------------------------------------------

// collector holds the installed TraceStore. It stays nil — and Start
// opens no trace — until SetCollector.
var collector atomic.Pointer[Store]

// SetCollector installs the store every ended span is recorded into
// (nil uninstalls and returns tracing to no-ops). The same store should
// be the one served on /v1/debug/traces.
func SetCollector(s *Store) {
	if s == nil {
		collector.Store(nil)
		return
	}
	collector.Store(s)
}

// Collector returns the installed store, or nil when tracing is off.
func Collector() *Store { return collector.Load() }

// --- context plumbing --------------------------------------------------

type ctxSpanKey struct{}   // carries *Span (a live local span)
type ctxRemoteKey struct{} // carries SpanContext (a parent from the wire)

// ContextWithRemote returns ctx carrying sc as the parent for the next
// Start — the receive side of traceparent propagation, and the hand-off
// point when an async job must outlive the request context it came
// from. An invalid sc returns ctx unchanged.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxRemoteKey{}, sc)
}

// FromContext returns the identity of the innermost span in ctx: a live
// local span's context if one is open, else a remote parent installed
// by ContextWithRemote, else the zero (invalid) SpanContext.
func FromContext(ctx context.Context) SpanContext {
	if sp, ok := ctx.Value(ctxSpanKey{}).(*Span); ok && sp != nil {
		return sp.sc
	}
	if sc, ok := ctx.Value(ctxRemoteKey{}).(SpanContext); ok {
		return sc
	}
	return SpanContext{}
}

// SpanFromContext returns the live local span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxSpanKey{}).(*Span)
	return sp
}

// EnsureRoot returns ctx guaranteed to carry a span context: when none
// is present a fresh root identity is attached as a remote parent.
// Clients use it so every outbound request carries a traceparent even
// when the client process itself records no spans.
func EnsureRoot(ctx context.Context) context.Context {
	if FromContext(ctx).Valid() {
		return ctx
	}
	return ContextWithRemote(ctx, SpanContext{TraceID: newTraceID(), SpanID: newSpanID()})
}

// --- spans -------------------------------------------------------------

// Attr is one key/value annotation on a span or event. Keys are
// compile-time snake_case constants (enforced by the aiglint metricname
// analyzer over trace.A and Span.Attr call sites); values are free.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// A constructs an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is a point-in-time annotation inside a span (a cache lookup, a
// fault firing, an idempotency replay).
type Event struct {
	Name  string `json:"name"`
	Time  time.Time
	Attrs []Attr
}

// Span is one live operation within a trace. A nil span (telemetry and
// tracing both off) is a no-op on every method, so call sites need no
// guard. A span with a nil store is registry-only: End records its
// duration and nothing else. End is idempotent; attributes and events
// after End are dropped.
type Span struct {
	store  *Store // nil for a registry-only span
	name   string
	sc     SpanContext
	parent SpanID
	// localRoot marks a span with no live local parent: the place a
	// trace enters this process (a fresh root, or a child of a remote
	// traceparent). The store treats the end of a local root as the
	// trace's completion signal.
	localRoot bool
	start     time.Time
	dropped   bool // over the per-trace span budget: not recorded

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	errMsg string
	ended  bool
}

// maxAttrsPerSpan and maxEventsPerSpan bound one span's annotation
// growth so a loop annotating in flight cannot grow memory without
// limit. Overflow is silently dropped (the span itself survives).
const (
	maxAttrsPerSpan  = 32
	maxEventsPerSpan = 64
)

// Start opens a span named name as a child of the innermost span
// context in ctx (a fresh root when there is none) and returns a
// context carrying it. Without a collector it returns ctx unchanged
// with a registry-only span, or with a nil span when the telemetry
// registry is off too — the disabled path stays within noise of a bare
// call (see BenchmarkTraceDisabled).
func Start(ctx context.Context, name string) (context.Context, *Span) {
	st := collector.Load()
	if st == nil {
		if telemetry.Default() == nil {
			return ctx, nil
		}
		return ctx, &Span{name: name, start: time.Now()}
	}
	sp := &Span{store: st, name: name, start: time.Now()}
	switch {
	case SpanFromContext(ctx) != nil:
		parent := SpanFromContext(ctx)
		sp.sc.TraceID = parent.sc.TraceID
		sp.parent = parent.sc.SpanID
	default:
		if rsc, ok := ctx.Value(ctxRemoteKey{}).(SpanContext); ok && rsc.Valid() {
			sp.sc.TraceID = rsc.TraceID
			sp.parent = rsc.SpanID
		} else {
			sp.sc.TraceID = newTraceID()
		}
		sp.localRoot = true
	}
	sp.sc.SpanID = newSpanID()
	st.spanStarted(sp)
	return context.WithValue(ctx, ctxSpanKey{}, sp), sp
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Context returns the span's propagated identity (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Attr attaches one key/value annotation and returns the span for
// chaining. key must be a compile-time snake_case constant.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil || s.store == nil {
		return s
	}
	s.mu.Lock()
	if !s.ended && len(s.attrs) < maxAttrsPerSpan {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
	return s
}

// Event records a point-in-time annotation inside the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil || s.store == nil {
		return
	}
	s.mu.Lock()
	if !s.ended && len(s.events) < maxEventsPerSpan {
		s.events = append(s.events, Event{Name: name, Time: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// AddEvent records an event on the innermost live span in ctx (no-op
// when there is none). name must be a compile-time snake_case constant.
func AddEvent(ctx context.Context, name string, attrs ...Attr) {
	SpanFromContext(ctx).Event(name, attrs...)
}

// Fail marks the span errored. The first non-nil error wins.
func (s *Span) Fail(err error) *Span {
	if s == nil || s.store == nil || err == nil {
		return s
	}
	s.mu.Lock()
	if !s.ended && s.errMsg == "" {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
	return s
}

// End closes the span: its duration is recorded under its name in the
// telemetry registry's span histograms and, unless the span is
// registry-only, the completed span is handed to the trace store. End
// is idempotent — a second call is a no-op, so error paths may End a
// span the happy path would have Ended later.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	d := time.Since(s.start)
	s.mu.Unlock()
	telemetry.Default().RecordSpan(s.name, d)
	if s.store != nil {
		s.store.spanEnded(s, d)
	}
}
