package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tt"
)

// testAIG synthesizes a deterministic small AIG (distinct per seed) and
// returns its AIGER ASCII encoding.
func testAIG(t testing.TB, seed int64) string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := synth.SynthSOP([]tt.TT{tt.Random(6, r)})
	var b bytes.Buffer
	if err := aiger.WriteASCII(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

type testDaemon struct {
	svc *Server
	ts  *httptest.Server
	reg *telemetry.Registry
}

func newTestDaemon(t testing.TB, cfg Config) *testDaemon {
	t.Helper()
	reg := telemetry.Enable()
	reg.Reset()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &testDaemon{svc: svc, ts: ts, reg: reg}
}

// do issues a request and decodes the JSON response body into out.
func (d *testDaemon) do(t testing.TB, method, path, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, d.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// submit uploads an AIGER payload and returns its fingerprint.
func (d *testDaemon) submit(t testing.TB, payload string) AIGView {
	t.Helper()
	var v AIGView
	if code := d.do(t, "POST", "/v1/aigs", payload, &v); code != http.StatusOK {
		t.Fatalf("submitting AIG: status %d", code)
	}
	return v
}

// counter reads a telemetry counter's current value.
func (d *testDaemon) counter(name string) int64 { return d.reg.Counter(name).Value() }

// waitJob polls the job endpoint until the job leaves queued/running.
func (d *testDaemon) waitJob(t testing.TB, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := d.do(t, "GET", "/v1/jobs/"+id, "", &v); code != http.StatusOK {
			t.Fatalf("polling job %s: status %d", id, code)
		}
		if v.Status != JobQueued && v.Status != JobRunning {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestUntracedDaemonExportsNoTraceID: with telemetry on but no trace
// collector — how aigd runs without -trace — request spans are
// registry-only. They still feed the service/request histogram, but no
// trace identity (it would be all zeros) may reach the response headers
// or the access log.
func TestUntracedDaemonExportsNoTraceID(t *testing.T) {
	trace.SetCollector(nil)
	var events bytes.Buffer
	d := newTestDaemon(t, Config{Events: telemetry.NewEventLogger(&events)})
	resp, err := d.ts.Client().Post(d.ts.URL+"/v1/aigs", "text/plain", strings.NewReader(testAIG(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	d.ts.Close() // waits for the handler, so the access log is complete
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	for _, h := range []string{trace.TraceIDHeader, "traceparent"} {
		if v := resp.Header.Get(h); v != "" {
			t.Errorf("untraced daemon sent %s: %q", h, v)
		}
	}
	if log := events.String(); !strings.Contains(log, `"http_request"`) || strings.Contains(log, "trace_id") {
		t.Errorf("want one access-log line without trace_id, got %q", log)
	}
	if n := d.reg.SpanStats("service/request").Count; n != 1 {
		t.Errorf("service/request histogram count = %d, want 1", n)
	}
}

// wideAIG returns the AIGER encoding of an AIG with one more input than
// exhaustive simulation covers.
func wideAIG(t testing.TB) string {
	t.Helper()
	g := aig.New(tt.MaxVars + 1)
	out := g.PI(0)
	for i := 1; i < g.NumPIs(); i++ {
		out = g.And(out, g.PI(i))
	}
	g.AddPO(out)
	var b bytes.Buffer
	if err := aiger.WriteASCII(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHandlerTable exercises every endpoint's validation and happy path
// through the real HTTP stack.
func TestHandlerTable(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fpA := d.submit(t, testAIG(t, 1)).Fingerprint
	fpB := d.submit(t, testAIG(t, 2)).Fingerprint
	// Flow jobs verify by exhaustive simulation, so they refuse a wide
	// AIG up front; scoring it needs no such check.
	fpW := d.submit(t, wideAIG(t)).Fingerprint

	cases := []struct {
		name         string
		method, path string
		body         string
		wantCode     int
	}{
		{"submit bad AIGER", "POST", "/v1/aigs", "this is not aiger", http.StatusBadRequest},
		{"get known AIG", "GET", "/v1/aigs/" + fpA, "", http.StatusOK},
		{"get unknown AIG", "GET", "/v1/aigs/ffff", "", http.StatusNotFound},
		{"metrics ok", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q}`, fpA, fpB), http.StatusOK},
		{"metrics subset", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO","RGC"]}`, fpA, fpB), http.StatusOK},
		{"metrics unknown metric", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["nope"]}`, fpA, fpB), http.StatusBadRequest},
		{"metrics unknown fp", "POST", "/v1/metrics", fmt.Sprintf(`{"a":"eeee","b":%q}`, fpB), http.StatusNotFound},
		{"metrics bad json", "POST", "/v1/metrics", `{"a":`, http.StatusBadRequest},
		{"metrics unknown field", "POST", "/v1/metrics", `{"aa":"x"}`, http.StatusBadRequest},
		{"batch too small", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q]}`, fpA), http.StatusBadRequest},
		{"batch ok", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q,%q],"metrics":["RGC"]}`, fpA, fpB), http.StatusOK},
		{"optimize unknown flow", "POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"nope"}`, fpA), http.StatusBadRequest},
		{"optimize unknown fp", "POST", "/v1/optimize", `{"aig":"eeee"}`, http.StatusNotFound},
		{"report unknown fp", "POST", "/v1/report", fmt.Sprintf(`{"a":"eeee","b":%q}`, fpB), http.StatusNotFound},
		{"optimize too many inputs", "POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, fpW), http.StatusBadRequest},
		{"report too many inputs", "POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["dc2"]}`, fpA, fpW), http.StatusBadRequest},
		{"metrics many inputs", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q}`, fpA, fpW), http.StatusOK},
		{"job unknown", "GET", "/v1/jobs/j999999", "", http.StatusNotFound},
		{"cancel unknown", "DELETE", "/v1/jobs/j999999", "", http.StatusNotFound},
		{"healthz", "GET", "/healthz", "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out map[string]any
			if code := d.do(t, tc.method, tc.path, tc.body, &out); code != tc.wantCode {
				t.Errorf("%s %s = %d (%v), want %d", tc.method, tc.path, code, out, tc.wantCode)
			}
		})
	}
}

// TestContentAddressedStore: resubmitting an identical structure must
// return the same fingerprint, flag it as known, and hit the store
// instead of re-interning.
func TestContentAddressedStore(t *testing.T) {
	d := newTestDaemon(t, Config{})
	payload := testAIG(t, 7)
	first := d.submit(t, payload)
	if first.Known {
		t.Error("first submission reported known=true")
	}
	hits0 := d.counter("service/store_hits")
	second := d.submit(t, payload)
	if !second.Known {
		t.Error("resubmission reported known=false")
	}
	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints diverge: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if got := d.counter("service/store_hits") - hits0; got != 1 {
		t.Errorf("store_hits delta = %d, want 1", got)
	}
}

// TestSubmitInternsReachableCone: the fingerprint ignores dangling
// cones, so the store must too — submitting a graph with dead nodes and
// then its cleaned-up twin must intern one entry whose stats describe
// the PO-reachable cone, regardless of which arrived first.
func TestSubmitInternsReachableCone(t *testing.T) {
	d := newTestDaemon(t, Config{})

	dirty := aig.New(2)
	a, b := dirty.PI(0), dirty.PI(1)
	dirty.AddPO(dirty.And(a, b))
	dirty.And(a, b.Not()) // dangling AND, never referenced by a PO
	clean := dirty.Cleanup()
	if dirty.NumAnds() != 2 || clean.NumAnds() != 1 {
		t.Fatalf("bad fixture: dirty has %d ANDs, clean has %d", dirty.NumAnds(), clean.NumAnds())
	}

	encode := func(g *aig.AIG) string {
		var buf bytes.Buffer
		if err := aiger.WriteASCII(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	first := d.submit(t, encode(dirty))
	if first.Known {
		t.Error("first submission reported known=true")
	}
	if first.Ands != clean.NumAnds() {
		t.Errorf("dirty submission interned with Ands=%d, want reachable cone's %d", first.Ands, clean.NumAnds())
	}
	second := d.submit(t, encode(clean))
	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints diverge: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if !second.Known {
		t.Error("clean twin was not a store hit")
	}
	if second.Ands != clean.NumAnds() {
		t.Errorf("served stats Ands=%d, want %d", second.Ands, clean.NumAnds())
	}
}

// TestBatchCap: a batch referencing more AIGs than the per-request
// limit must be rejected with 400 before it reaches a pool worker.
func TestBatchCap(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fpA := d.submit(t, testAIG(t, 30)).Fingerprint
	fpB := d.submit(t, testAIG(t, 31)).Fingerprint

	refs := make([]string, maxBatchAIGs+1)
	refs[0] = fmt.Sprintf("%q", fpB)
	for i := 1; i < len(refs); i++ {
		refs[i] = fmt.Sprintf("%q", fpA)
	}
	body := fmt.Sprintf(`{"aigs":[%s],"metrics":["RGC"]}`, strings.Join(refs, ","))
	var out map[string]any
	if code := d.do(t, "POST", "/v1/metrics/batch", body, &out); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d (%v), want 400", code, out)
	}
	if got := d.counter("service/metric_computes"); got != 0 {
		t.Errorf("oversized batch still computed %d metrics", got)
	}
}

// TestCacheHitIsBitIdentical: the second identical metrics request must
// be served entirely from the result cache — zero new computations —
// and produce byte-for-byte the same scores.
func TestCacheHitIsBitIdentical(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fpA := d.submit(t, testAIG(t, 3)).Fingerprint
	fpB := d.submit(t, testAIG(t, 4)).Fingerprint
	body := fmt.Sprintf(`{"a":%q,"b":%q}`, fpA, fpB)

	var fresh MetricsResponse
	if code := d.do(t, "POST", "/v1/metrics", body, &fresh); code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if len(fresh.Scores) != 10 {
		t.Fatalf("got %d scores, want all 10", len(fresh.Scores))
	}
	computes0 := d.counter("service/metric_computes")
	hits0 := d.counter("service/cache_hits")

	// Same pair in swapped operand order: must hit the same cache lines.
	var cached MetricsResponse
	swapped := fmt.Sprintf(`{"a":%q,"b":%q}`, fpB, fpA)
	if code := d.do(t, "POST", "/v1/metrics", swapped, &cached); code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if got := d.counter("service/metric_computes") - computes0; got != 0 {
		t.Errorf("cache hit still computed %d metrics", got)
	}
	if got := d.counter("service/cache_hits") - hits0; got != 10 {
		t.Errorf("cache_hits delta = %d, want 10", got)
	}
	for name, v := range fresh.Scores {
		if cv, ok := cached.Scores[name]; !ok || cv != v {
			t.Errorf("%s: cached %v differs from fresh %v", name, cv, v)
		}
	}
}

// TestSingleflightStress: many concurrent identical requests against a
// cold cache must coalesce into exactly one computation per metric.
// Run under -race this also exercises the cache, store, and flight
// locking.
func TestSingleflightStress(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 8, QueueDepth: 64, PendingMetrics: 64})
	d.svc.testComputeDelay = func() { time.Sleep(20 * time.Millisecond) }
	fpA := d.submit(t, testAIG(t, 5)).Fingerprint
	fpB := d.submit(t, testAIG(t, 6)).Fingerprint
	body := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO"]}`, fpA, fpB)

	const clients = 16
	var wg sync.WaitGroup
	scores := make([]float64, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp MetricsResponse
			codes[i] = d.do(t, "POST", "/v1/metrics", body, &resp)
			scores[i] = resp.Scores["VEO"]
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if scores[i] != scores[0] {
			t.Errorf("client %d: score %v differs from %v", i, scores[i], scores[0])
		}
	}
	if got := d.counter("service/metric_computes"); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d computations, want 1", clients, got)
	}
	if d.counter("service/singleflight_shared") == 0 {
		t.Error("no request reported sharing the flight result")
	}
}

// TestLoadShed: once the admission budget is exhausted, further metric
// requests must shed with 429 and a Retry-After hint rather than queue
// without bound.
func TestLoadShed(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, PendingMetrics: 1, PendingJobs: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	var once sync.Once
	d.svc.testComputeDelay = func() {
		once.Do(func() { close(started) })
		<-release
	}
	defer releaseOnce()

	fpA := d.submit(t, testAIG(t, 8)).Fingerprint
	fpB := d.submit(t, testAIG(t, 9)).Fingerprint
	body := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO"]}`, fpA, fpB)

	firstCode := make(chan int, 1)
	go func() {
		var resp MetricsResponse
		firstCode <- d.do(t, "POST", "/v1/metrics", body, &resp)
	}()
	<-started // the only admission slot is now held mid-computation

	req, err := http.NewRequest("POST", d.ts.URL+"/v1/metrics", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	if d.counter("service/shed") == 0 {
		t.Error("shed counter did not move")
	}

	releaseOnce()
	if code := <-firstCode; code != http.StatusOK {
		t.Errorf("admitted request: status %d, want 200", code)
	}
}

// TestGracefulDrain: Drain must refuse new work with 503 while letting
// the in-flight job run to completion.
func TestGracefulDrain(t *testing.T) {
	d := newTestDaemon(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var once sync.Once
	d.svc.testComputeDelay = func() {
		once.Do(func() { close(started) })
		<-release
	}

	fpA := d.submit(t, testAIG(t, 10)).Fingerprint
	fpB := d.submit(t, testAIG(t, 11)).Fingerprint

	var acc JobAccepted
	body := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO"],"flows":["dc2"]}`, fpA, fpB)
	if code := d.do(t, "POST", "/v1/report", body, &acc); code != http.StatusAccepted {
		t.Fatalf("submitting report job: status %d", code)
	}
	<-started // the job is now mid-computation

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- d.svc.Drain(dctx) }()
	waitFor(t, func() bool { return d.svc.draining.Load() })

	if code := d.do(t, "POST", "/v1/metrics", body, nil); code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", code)
	}
	var health map[string]any
	if code := d.do(t, "GET", "/healthz", "", &health); code != http.StatusOK {
		t.Errorf("healthz during drain: status %d, want 200", code)
	} else if health["draining"] != true {
		t.Errorf("healthz reports draining=%v, want true", health["draining"])
	}

	releaseOnce()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	v, ok := d.svc.jobs.get(acc.ID)
	if !ok || v.Status != JobDone {
		t.Errorf("job after drain = %+v, want done", v)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestOptimizeJob runs a full async optimization: the job must succeed,
// shrink the AIG, and intern the optimized structure so its fingerprint
// is immediately scoreable.
func TestOptimizeJob(t *testing.T) {
	d := newTestDaemon(t, Config{})
	in := d.submit(t, testAIG(t, 12))

	var acc JobAccepted
	body := fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, in.Fingerprint)
	if code := d.do(t, "POST", "/v1/optimize", body, &acc); code != http.StatusAccepted {
		t.Fatalf("submitting optimize job: status %d", code)
	}
	if acc.Poll != "/v1/jobs/"+acc.ID {
		t.Errorf("poll path = %q", acc.Poll)
	}
	v := d.waitJob(t, acc.ID)
	if v.Status != JobDone {
		t.Fatalf("job = %+v, want done", v)
	}
	res, ok := v.Result.(map[string]any)
	if !ok {
		t.Fatalf("result has type %T", v.Result)
	}
	if res["gates_after"].(float64) > res["gates_before"].(float64) {
		t.Errorf("dc2 grew the AIG: %v -> %v", res["gates_before"], res["gates_after"])
	}
	ofp, _ := res["optimized_fingerprint"].(string)
	if code := d.do(t, "GET", "/v1/aigs/"+ofp, "", nil); code != http.StatusOK {
		t.Errorf("optimized AIG %q not in store: status %d", ofp, code)
	}
	if aigerText, _ := res["aiger"].(string); !strings.HasPrefix(aigerText, "aag ") {
		t.Errorf("result AIGER does not look like ASCII AIGER: %.20q", aigerText)
	}
}

// TestReportJob: the ROD-style pair report must carry both the pairwise
// metrics and a per-flow ROD entry.
func TestReportJob(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fpA := d.submit(t, testAIG(t, 13)).Fingerprint
	fpB := d.submit(t, testAIG(t, 14)).Fingerprint

	var acc JobAccepted
	body := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO","RGC"],"flows":["dc2"]}`, fpA, fpB)
	if code := d.do(t, "POST", "/v1/report", body, &acc); code != http.StatusAccepted {
		t.Fatalf("submitting report job: status %d", code)
	}
	v := d.waitJob(t, acc.ID)
	if v.Status != JobDone {
		t.Fatalf("job = %+v, want done", v)
	}
	res, ok := v.Result.(map[string]any)
	if !ok {
		t.Fatalf("result has type %T", v.Result)
	}
	metrics, _ := res["Metrics"].(map[string]any)
	if len(metrics) != 2 {
		t.Errorf("report metrics = %v, want VEO and RGC", metrics)
	}
	rod, _ := res["ROD"].(map[string]any)
	if _, ok := rod["dc2"]; !ok {
		t.Errorf("report rod = %v, want a dc2 entry", rod)
	}
}

// TestJobCancel: canceling a queued job must surface as status
// canceled once the worker reaches it.
func TestJobCancel(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, PendingJobs: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var once sync.Once
	d.svc.testComputeDelay = func() {
		once.Do(func() { close(started) })
		<-release
	}

	fpA := d.submit(t, testAIG(t, 15)).Fingerprint
	fpB := d.submit(t, testAIG(t, 16)).Fingerprint
	body := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO"],"flows":["dc2"]}`, fpA, fpB)

	var blocker, victim JobAccepted
	if code := d.do(t, "POST", "/v1/report", body, &blocker); code != http.StatusAccepted {
		t.Fatalf("submitting blocker: status %d", code)
	}
	<-started // blocker owns the only worker
	if code := d.do(t, "POST", "/v1/report", body, &victim); code != http.StatusAccepted {
		t.Fatalf("submitting victim: status %d", code)
	}
	if code := d.do(t, "DELETE", "/v1/jobs/"+victim.ID, "", nil); code != http.StatusOK {
		t.Fatalf("canceling: status %d", code)
	}
	releaseOnce()
	if v := d.waitJob(t, victim.ID); v.Status != JobCanceled {
		t.Errorf("canceled job = %+v, want canceled", v)
	}
	if v := d.waitJob(t, blocker.ID); v.Status != JobDone {
		t.Errorf("blocker job = %+v, want done", v)
	}
}

// TestQueuedCancelReleasesAdmission: canceling a job that never left
// the queue must still give back its admission slot once the worker
// pops it — a canceled queued job must not permanently shrink the
// PendingJobs budget.
func TestQueuedCancelReleasesAdmission(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 4, PendingJobs: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var once sync.Once
	d.svc.testComputeDelay = func() {
		once.Do(func() { close(started) })
		<-release
	}

	fpA := d.submit(t, testAIG(t, 27)).Fingerprint
	fpB := d.submit(t, testAIG(t, 28)).Fingerprint
	body := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO"],"flows":["dc2"]}`, fpA, fpB)

	var blocker, victim JobAccepted
	if code := d.do(t, "POST", "/v1/report", body, &blocker); code != http.StatusAccepted {
		t.Fatalf("submitting blocker: status %d", code)
	}
	<-started // blocker owns the only worker, victim will sit queued
	if code := d.do(t, "POST", "/v1/report", body, &victim); code != http.StatusAccepted {
		t.Fatalf("submitting victim: status %d", code)
	}
	// Both PendingJobs slots are now held: the next submission sheds.
	if code := d.do(t, "POST", "/v1/report", body, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-budget submission: status %d, want 429", code)
	}
	if code := d.do(t, "DELETE", "/v1/jobs/"+victim.ID, "", nil); code != http.StatusOK {
		t.Fatalf("canceling victim: status %d", code)
	}
	releaseOnce()
	if v := d.waitJob(t, victim.ID); v.Status != JobCanceled {
		t.Fatalf("victim = %+v, want canceled", v)
	}
	if v := d.waitJob(t, blocker.ID); v.Status != JobDone {
		t.Fatalf("blocker = %+v, want done", v)
	}
	// Both slots must be free again: a fresh job is admitted, not shed.
	var next JobAccepted
	if code := d.do(t, "POST", "/v1/report", body, &next); code != http.StatusAccepted {
		t.Errorf("post-cancel submission: status %d, want 202 (admission slot leaked)", code)
	} else if v := d.waitJob(t, next.ID); v.Status != JobDone {
		t.Errorf("post-cancel job = %+v, want done", v)
	}
}

// TestBatchProfilesOnce: an all-pairs batch over n graphs must build
// exactly n profiles — per-graph preprocessing is coalesced, never
// repeated per pair.
func TestBatchProfilesOnce(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fps := make([]string, 3)
	for i := range fps {
		fps[i] = d.submit(t, testAIG(t, int64(20+i))).Fingerprint
	}
	body := fmt.Sprintf(`{"aigs":[%q,%q,%q]}`, fps[0], fps[1], fps[2])
	var resp BatchResponse
	if code := d.do(t, "POST", "/v1/metrics/batch", body, &resp); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(resp.Pairs) != 3 {
		t.Fatalf("got %d pairs for 3 graphs, want 3", len(resp.Pairs))
	}
	for _, p := range resp.Pairs {
		if len(p.Scores) != 10 {
			t.Errorf("pair (%d,%d): %d scores, want 10", p.I, p.J, len(p.Scores))
		}
	}
	if got := d.counter("service/profile_builds"); got != 3 {
		t.Errorf("profile_builds = %d, want one per graph (3)", got)
	}

	// The same batch again: fully cache-served.
	computes0 := d.counter("service/metric_computes")
	if code := d.do(t, "POST", "/v1/metrics/batch", body, nil); code != http.StatusOK {
		t.Fatalf("second batch: status %d", code)
	}
	if got := d.counter("service/metric_computes") - computes0; got != 0 {
		t.Errorf("repeat batch recomputed %d metrics, want 0", got)
	}
}

// TestProfileExtend: a metrics request needing few artifacts followed
// by one needing more must extend the existing profile in place, not
// rebuild it.
func TestProfileExtend(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fpA := d.submit(t, testAIG(t, 24)).Fingerprint
	fpB := d.submit(t, testAIG(t, 25)).Fingerprint

	cheap := fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["RGC"]}`, fpA, fpB)
	if code := d.do(t, "POST", "/v1/metrics", cheap, nil); code != http.StatusOK {
		t.Fatalf("cheap request: status %d", code)
	}
	if got := d.counter("service/profile_extends"); got != 0 {
		t.Fatalf("cheap request already extended %d profiles", got)
	}
	full := fmt.Sprintf(`{"a":%q,"b":%q}`, fpA, fpB)
	if code := d.do(t, "POST", "/v1/metrics", full, nil); code != http.StatusOK {
		t.Fatalf("full request: status %d", code)
	}
	if builds := d.counter("service/profile_builds"); builds != 2 {
		t.Errorf("profile_builds = %d, want 2 (one per graph, never rebuilt)", builds)
	}
	if got := d.counter("service/profile_extends"); got != 2 {
		t.Errorf("profile_extends = %d, want 2", got)
	}
}

// TestJobSpill: with a spill directory and a tiny threshold, a job
// result must land on disk as valid JSON and be replaced by a SpillRef.
func TestJobSpill(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, Config{SpillDir: dir, SpillBytes: 1})
	in := d.submit(t, testAIG(t, 26))

	var acc JobAccepted
	body := fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, in.Fingerprint)
	if code := d.do(t, "POST", "/v1/optimize", body, &acc); code != http.StatusAccepted {
		t.Fatalf("submitting: status %d", code)
	}
	v := d.waitJob(t, acc.ID)
	if v.Status != JobDone {
		t.Fatalf("job = %+v, want done", v)
	}
	ref, ok := v.Result.(map[string]any)
	if !ok || ref["spilled_to"] == nil {
		t.Fatalf("result = %v, want a spill reference", v.Result)
	}
	path := ref["spilled_to"].(string)
	if filepath.Dir(path) != dir {
		t.Errorf("spilled to %s, want inside %s", path, dir)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res OptimizeResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("spill file is not valid JSON: %v", err)
	}
	if res.Fingerprint != in.Fingerprint {
		t.Errorf("spilled result names fingerprint %q, want %q", res.Fingerprint, in.Fingerprint)
	}
	if d.counter("service/spills") == 0 {
		t.Error("spill counter did not move")
	}
}
