package trace

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// withStore installs a fresh collector for the test and removes it on
// cleanup so no spans leak across tests.
func withStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	st := NewStore(cfg)
	SetCollector(st)
	t.Cleanup(func() { SetCollector(nil) })
	return st
}

func TestStartDisabledIsNoop(t *testing.T) {
	SetCollector(nil)
	telemetry.Disable()
	ctx, sp := Start(context.Background(), "test/op")
	if sp != nil {
		t.Fatal("disabled Start must return a nil span")
	}
	if ctx != context.Background() {
		t.Fatal("disabled Start must return ctx unchanged")
	}
	// All nil-span methods must be safe.
	sp.Attr("k", 1).Fail(errors.New("x"))
	sp.Event("e")
	sp.End()
	AddEvent(ctx, "e")
	if FromContext(ctx).Valid() {
		t.Fatal("no span context expected")
	}
	if n := testing.AllocsPerRun(100, func() {
		_, sp := Start(ctx, "test/op")
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled Start+End allocates %v times, want 0", n)
	}
}

// TestStartRegistryOnly covers the middle mode: telemetry on, no
// collector. The span feeds the registry histogram and nothing else —
// no trace identity, no stored trace, ctx unchanged.
func TestStartRegistryOnly(t *testing.T) {
	SetCollector(nil)
	reg := telemetry.Enable()
	reg.Reset()
	t.Cleanup(telemetry.Disable)

	ctx, sp := Start(context.Background(), "test/registry_only")
	if sp == nil {
		t.Fatal("registry-only Start must return a span that records")
	}
	if ctx != context.Background() {
		t.Fatal("registry-only Start must return ctx unchanged")
	}
	if sp.Context().Valid() || FromContext(ctx).Valid() {
		t.Fatal("registry-only span must carry no trace identity")
	}
	sp.Attr("k", 1).Fail(errors.New("x"))
	sp.Event("e")
	sp.End()
	sp.End() // idempotent
	if s := reg.SpanStats("test/registry_only"); s.Count != 1 {
		t.Fatalf("span histogram count = %d, want 1", s.Count)
	}
	// The span never entered a trace: a traced span started later from
	// the same ctx roots a trace holding only itself.
	st := withStore(t, StoreConfig{})
	_, next := Start(ctx, "test/next")
	next.End()
	if v, ok := st.Get(next.Context().TraceID.String()); !ok || v.Root != "test/next" || len(v.Spans) != 1 {
		t.Fatalf("next span's trace = %+v (found %v), want a root holding only test/next", v, ok)
	}
}

func TestParentChildSameTrace(t *testing.T) {
	st := withStore(t, StoreConfig{})
	ctx, root := Start(context.Background(), "test/root")
	cctx, child := Start(ctx, "test/child")
	_, grand := Start(cctx, "test/grandchild")
	if child.Context().TraceID != root.Context().TraceID || grand.Context().TraceID != root.Context().TraceID {
		t.Fatal("children must share the root's trace ID")
	}
	if child.parent != root.Context().SpanID {
		t.Fatal("child must be parented to root")
	}
	if !root.localRoot || child.localRoot || grand.localRoot {
		t.Fatal("only the first span is the local root")
	}
	grand.End()
	child.End()
	root.End()
	v, ok := st.Get(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(v.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(v.Spans))
	}
	if v.Open {
		t.Fatal("trace should be complete")
	}
}

func TestRemoteParent(t *testing.T) {
	st := withStore(t, StoreConfig{})
	remote := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	ctx := ContextWithRemote(context.Background(), remote)
	_, sp := Start(ctx, "test/handler")
	if sp.Context().TraceID != remote.TraceID {
		t.Fatal("span must adopt the remote trace ID")
	}
	if sp.parent != remote.SpanID {
		t.Fatal("span must be parented to the remote span")
	}
	if !sp.localRoot {
		t.Fatal("a remote-parented span is the local root")
	}
	sp.End()
	if _, ok := st.Get(remote.TraceID.String()); !ok {
		t.Fatal("trace must be retrievable by the remote trace ID")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	tp := Traceparent(sc)
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("bad traceparent %q", tp)
	}
	got, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}

	h := http.Header{}
	Inject(ContextWithRemote(context.Background(), sc), h)
	got2, ok := Extract(h)
	if !ok || got2 != sc {
		t.Fatalf("header round trip failed: %+v ok=%v", got2, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // short version
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
	}
	for _, v := range bad {
		if _, err := ParseTraceparent(v); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
}

func TestEnsureRoot(t *testing.T) {
	ctx := EnsureRoot(context.Background())
	sc := FromContext(ctx)
	if !sc.Valid() {
		t.Fatal("EnsureRoot must attach a valid context")
	}
	if got := FromContext(EnsureRoot(ctx)); got != sc {
		t.Fatal("EnsureRoot must not replace an existing context")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	st := withStore(t, StoreConfig{})
	_, sp := Start(context.Background(), "test/op")
	sp.End()
	sp.End() // second End must not double-record
	v, _ := st.Get(sp.Context().TraceID.String())
	if len(v.Spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(v.Spans))
	}
}

func TestSpanFailAndAttrs(t *testing.T) {
	st := withStore(t, StoreConfig{})
	_, sp := Start(context.Background(), "test/op")
	sp.Attr("endpoint", "/v1/test").Attr("n", 3)
	sp.Event("cache_lookup", A("outcome", "miss"))
	sp.Fail(errors.New("boom"))
	sp.Fail(errors.New("later")) // first error wins
	sp.End()
	v, _ := st.Get(sp.Context().TraceID.String())
	if !v.Errored {
		t.Fatal("trace should be errored")
	}
	s := v.Spans[0]
	if s.Error != "boom" {
		t.Fatalf("error = %q, want boom", s.Error)
	}
	if len(s.Attrs) != 2 || s.Attrs[0].Key != "endpoint" {
		t.Fatalf("attrs = %+v", s.Attrs)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "cache_lookup" {
		t.Fatalf("events = %+v", s.Events)
	}
	if v.Endpoint != "/v1/test" {
		t.Fatalf("endpoint = %q", v.Endpoint)
	}
}

func TestSpanBudget(t *testing.T) {
	st := withStore(t, StoreConfig{MaxSpans: 4})
	ctx, root := Start(context.Background(), "test/root")
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "test/child")
		sp.End()
	}
	root.End()
	v, _ := st.Get(root.Context().TraceID.String())
	if len(v.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (budget)", len(v.Spans))
	}
	if v.DroppedSpans != 7 {
		t.Fatalf("dropped = %d, want 7", v.DroppedSpans)
	}
	if v.Open {
		t.Fatal("dropped spans must not hold the trace open")
	}
}

func TestEvictionRetainsErroredAndSlow(t *testing.T) {
	st := withStore(t, StoreConfig{Capacity: 8, SlowKeep: 2, SampleRate: 0.0001})
	mk := func(name string, fail bool, d time.Duration) TraceID {
		_, sp := Start(context.Background(), name)
		sp.start = sp.start.Add(-d) // backdate so duration is deterministic
		if fail {
			sp.Fail(errors.New("x"))
		}
		sp.End()
		return sp.Context().TraceID
	}
	errID := mk("test/err", true, time.Millisecond)
	slowID := mk("test/slow", false, time.Hour)
	var fastIDs []TraceID
	for i := 0; i < 40; i++ {
		fastIDs = append(fastIDs, mk("test/fast", false, time.Microsecond))
	}
	if st.Len() > 8 {
		t.Fatalf("store over capacity: %d", st.Len())
	}
	if _, ok := st.Get(errID.String()); !ok {
		t.Fatal("errored trace evicted")
	}
	if _, ok := st.Get(slowID.String()); !ok {
		t.Fatal("slowest trace evicted")
	}
	// With SampleRate ~0, most fast traces must be gone.
	kept := 0
	for _, id := range fastIDs {
		if _, ok := st.Get(id.String()); ok {
			kept++
		}
	}
	if kept > 7 {
		t.Fatalf("sampling kept %d unremarkable traces", kept)
	}
}

func TestOpenTracesSurviveEviction(t *testing.T) {
	st := withStore(t, StoreConfig{Capacity: 4, SampleRate: 1})
	var open []*Span
	for i := 0; i < 3; i++ {
		_, sp := Start(context.Background(), "test/open")
		open = append(open, sp)
	}
	for i := 0; i < 50; i++ {
		_, sp := Start(context.Background(), "test/done")
		sp.End()
	}
	for _, sp := range open {
		if _, ok := st.Get(sp.Context().TraceID.String()); !ok {
			t.Fatal("open trace evicted while complete traces existed")
		}
	}
	for _, sp := range open {
		sp.End()
	}
}

func TestLateAsyncSpanStitches(t *testing.T) {
	st := withStore(t, StoreConfig{})
	ctx, root := Start(context.Background(), "test/request")
	sc := FromContext(ctx)
	root.End() // handler returns before the async job runs

	jctx := ContextWithRemote(context.Background(), sc)
	_, job := Start(jctx, "test/job")
	job.End()

	v, ok := st.Get(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace gone")
	}
	if len(v.Spans) != 2 {
		t.Fatalf("late span did not stitch: %d spans", len(v.Spans))
	}
}

func TestListFilters(t *testing.T) {
	st := withStore(t, StoreConfig{})
	_, ok1 := Start(context.Background(), "test/a")
	ok1.Attr("endpoint", "/v1/metrics")
	ok1.End()
	_, bad := Start(context.Background(), "test/b")
	bad.Attr("endpoint", "/v1/optimize")
	bad.Fail(errors.New("x"))
	bad.End()
	_, openSp := Start(context.Background(), "test/c")

	if n := len(st.List(Filter{})); n != 3 {
		t.Fatalf("unfiltered list = %d, want 3", n)
	}
	if l := st.List(Filter{Status: "error"}); len(l) != 1 || l[0].Root != "test/b" {
		t.Fatalf("error filter: %+v", l)
	}
	if l := st.List(Filter{Status: "ok"}); len(l) != 1 || l[0].Root != "test/a" {
		t.Fatalf("ok filter: %+v", l)
	}
	if l := st.List(Filter{Status: "open"}); len(l) != 1 {
		t.Fatalf("open filter: %+v", l)
	}
	if l := st.List(Filter{Endpoint: "/v1/metrics"}); len(l) != 1 || l[0].Endpoint != "/v1/metrics" {
		t.Fatalf("endpoint filter: %+v", l)
	}
	openSp.End()
}

func TestFlameRendering(t *testing.T) {
	st := withStore(t, StoreConfig{})
	ctx, root := Start(context.Background(), "service/request")
	root.Attr("endpoint", "/v1/metrics")
	cctx, child := Start(ctx, "service/queue_wait")
	child.End()
	_, leaf := Start(cctx, "service/pair_scores")
	leaf.Event("cache_lookup", A("outcome", "hit"))
	leaf.End()
	root.End()

	text, ok := st.Flame(root.Context().TraceID.String())
	if !ok {
		t.Fatal("flame not found")
	}
	for _, want := range []string{"service/request", "service/queue_wait", "service/pair_scores", "* cache_lookup", "endpoint=/v1/metrics"} {
		if !strings.Contains(text, want) {
			t.Fatalf("flame missing %q:\n%s", want, text)
		}
	}
	// Child must be indented deeper than root.
	rootLine := lineWith(text, "service/request ")
	childLine := lineWith(text, "service/queue_wait")
	if indent(childLine) <= indent(rootLine) {
		t.Fatalf("child not nested under root:\n%s", text)
	}
}

func lineWith(text, sub string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			return line
		}
	}
	return ""
}

func indent(line string) int {
	return len(line) - len(strings.TrimLeft(line, " "))
}

func TestTelemetryHistogramsStillRecord(t *testing.T) {
	telemetry.Enable()
	telemetry.Default().Reset()
	t.Cleanup(telemetry.Disable)
	withStore(t, StoreConfig{})
	_, sp := Start(context.Background(), "test/histo")
	sp.End()
	if s := telemetry.Default().SpanStats("test/histo"); s.Count != 1 {
		t.Fatalf("span histogram count = %d, want 1 (trace spans must keep feeding telemetry)", s.Count)
	}
}

func TestHTTPHandler(t *testing.T) {
	st := withStore(t, StoreConfig{})
	ctx, root := Start(context.Background(), "service/request")
	root.Attr("endpoint", "/v1/metrics")
	_, child := Start(ctx, "service/queue_wait")
	child.End()
	root.End()
	id := root.Context().TraceID.String()

	h := st.Handler()
	get := func(path string) (int, string) {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/v1/debug/traces"); code != 200 || !strings.Contains(body, id) {
		t.Fatalf("list: %d %s", code, body)
	}
	if code, body := get("/v1/debug/traces?status=error"); code != 200 || strings.Contains(body, id) {
		t.Fatalf("error filter should exclude ok trace: %d %s", code, body)
	}
	if code, _ := get("/v1/debug/traces?status=bogus"); code != 400 {
		t.Fatalf("bad status filter: %d", code)
	}
	if code, _ := get("/v1/debug/traces?min_duration=xyz"); code != 400 {
		t.Fatalf("bad min_duration: %d", code)
	}
	if code, body := get("/v1/debug/traces/" + id); code != 200 || !strings.Contains(body, "service/queue_wait") {
		t.Fatalf("get: %d %s", code, body)
	}
	if code, body := get("/v1/debug/traces/" + id + "?format=flame"); code != 200 || !strings.Contains(body, "service/request") {
		t.Fatalf("flame: %d %s", code, body)
	}
	if code, _ := get("/v1/debug/traces/ffffffffffffffffffffffffffffffff"); code != 404 {
		t.Fatalf("unknown trace: %d", code)
	}
	if code, _ := get("/v1/debug/traces/nothex"); code != 404 {
		t.Fatalf("malformed trace id: %d", code)
	}
}
