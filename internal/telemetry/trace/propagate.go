package trace

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
)

// traceparentHeader is the W3C Trace Context header carrying the
// caller's span identity: 00-<32 hex trace-id>-<16 hex span-id>-<2 hex
// flags>. We always send flags 01 (sampled) — retention is decided at
// the collector tail, not at the edge.
const traceparentHeader = "traceparent"

// TraceIDHeader is the response header aigd echoes so callers can find
// their request in /v1/debug/traces without parsing traceparent.
const TraceIDHeader = "X-Trace-Id"

// Traceparent renders sc as a W3C traceparent value ("" when invalid).
func Traceparent(sc SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent value. Unknown versions are
// accepted if the version-00 fields parse (per spec, forward compat);
// all-zero IDs are rejected.
func ParseTraceparent(v string) (SpanContext, error) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: want 4 dash-separated fields", v)
	}
	if len(parts[0]) != 2 {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: bad version field", v)
	}
	if parts[0] == "ff" {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: version ff is forbidden", v)
	}
	var sc SpanContext
	tid, err := ParseTraceID(parts[1])
	if err != nil {
		return SpanContext{}, err
	}
	sc.TraceID = tid
	if len(parts[2]) != 2*len(sc.SpanID) {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: span ID wants %d hex digits", v, 2*len(sc.SpanID))
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(parts[2])); err != nil {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: span ID: %v", v, err)
	}
	if sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: span ID is the invalid all-zero value", v)
	}
	return sc, nil
}

// Inject writes the innermost span context in ctx onto h as a
// traceparent header. No-op when ctx carries no valid context.
func Inject(ctx context.Context, h http.Header) {
	if tp := Traceparent(FromContext(ctx)); tp != "" {
		h.Set(traceparentHeader, tp)
	}
}

// Extract reads the traceparent header from h. ok is false when the
// header is absent or malformed — callers then start a fresh root.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(traceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(v)
	if err != nil {
		return SpanContext{}, false
	}
	return sc, true
}

// StartServer opens the server-side span of one HTTP request: it
// adopts the caller's traceparent (or roots a fresh trace), starts the
// span called name under it, and echoes the trace identity in w's
// TraceIDHeader and traceparent headers, so a request that hops across
// processes stitches into one trace ID end to end. Nothing is echoed
// when the span has no valid identity (tracing off).
func StartServer(w http.ResponseWriter, r *http.Request, name string) (context.Context, *Span) {
	ctx := r.Context()
	if sc, ok := Extract(r.Header); ok {
		ctx = ContextWithRemote(ctx, sc)
	}
	ctx, sp := Start(ctx, name)
	if sc := sp.Context(); sc.Valid() {
		w.Header().Set(TraceIDHeader, sc.TraceID.String())
		w.Header().Set(traceparentHeader, Traceparent(sc))
	}
	return ctx, sp
}
