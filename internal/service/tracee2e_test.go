package service_test

// End-to-end trace propagation tests: these live in an external test
// package because they drive the daemon through the resilient client,
// which imports package service for its wire types.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/aiger"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tt"
)

// tracedDaemon is a daemon with a trace store installed as the global
// collector, plus a client pointed at it.
type tracedDaemon struct {
	ts *httptest.Server
	st *trace.Store
	cl *client.Client
}

func newTracedDaemon(t *testing.T, cfg service.Config) *tracedDaemon {
	t.Helper()
	telemetry.Enable().Reset()
	st := trace.NewStore(trace.StoreConfig{Capacity: 256, SampleRate: 1})
	trace.SetCollector(st)
	t.Cleanup(func() { trace.SetCollector(nil) })
	cfg.Trace = st
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	return &tracedDaemon{ts: ts, st: st, cl: cl}
}

func e2eAIG(t *testing.T, seed int64) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := synth.SynthSOP([]tt.TT{tt.Random(6, r)})
	var b bytes.Buffer
	if err := aiger.WriteASCII(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func spanNames(v trace.View) map[string]int {
	m := make(map[string]int, len(v.Spans))
	for _, sp := range v.Spans {
		m[sp.Name]++
	}
	return m
}

// awaitSpans polls the store until the trace contains every wanted span
// name — async job work (spill included) ends spans after the HTTP
// response, so the tree fills in shortly after the client returns.
func awaitSpans(t *testing.T, st *trace.Store, traceID string, want ...string) trace.View {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		v, ok := st.Get(traceID)
		if ok {
			names := spanNames(v)
			missing := ""
			for _, w := range want {
				if names[w] == 0 {
					missing = w
					break
				}
			}
			if missing == "" {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never grew span %q; have %v", traceID, missing, names)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in the store", traceID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracePropagationEndToEnd proves the tentpole property: one traced
// optimize call yields ONE trace ID spanning the client conversation,
// the HTTP handler, the job queue wait, the job execution with its
// harness flow down to the individual optimization passes, and the
// async spill write — all stitched across two processes' worth of
// context boundaries (client ctx → HTTP header → handler ctx →
// detached job ctx).
func TestTracePropagationEndToEnd(t *testing.T) {
	d := newTracedDaemon(t, service.Config{SpillDir: t.TempDir(), SpillBytes: 1})

	ctx, root := trace.Start(context.Background(), "test/root")
	if root == nil {
		t.Fatal("collector installed but Start returned a nil span")
	}
	traceID := trace.FromContext(ctx).TraceID.String()

	v, err := d.cl.SubmitAIG(ctx, e2eAIG(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := d.cl.Optimize(ctx, v.Fingerprint, "orchestrate", 1)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := d.cl.Await(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.Status != service.JobDone {
		t.Fatalf("job finished %s: %+v", jv.Status, jv)
	}
	if jv.TraceID != traceID {
		t.Fatalf("JobView.TraceID = %q, want submitting trace %q", jv.TraceID, traceID)
	}
	root.End()

	view := awaitSpans(t, d.st, traceID,
		"client/http", "service/request", "service/job_queue_wait",
		"service/job", "harness/flow", "flow/orchestrate", "opt/resub",
		"service/job_spill")
	names := spanNames(view)
	// The pass hangs off the flow, which hangs off the harness guard
	// (orchestrate always tries resub first).
	byID := make(map[string]trace.SpanView, len(view.Spans))
	for _, sp := range view.Spans {
		byID[sp.SpanID] = sp
	}
	for _, sp := range view.Spans {
		if sp.Name != "opt/resub" {
			continue
		}
		flow := byID[sp.Parent]
		if flow.Name != "flow/orchestrate" || byID[flow.Parent].Name != "harness/flow" {
			t.Fatalf("opt/resub parent chain = %q <- %q, want flow/orchestrate <- harness/flow",
				flow.Name, byID[flow.Parent].Name)
		}
	}
	// Submit + optimize + ≥1 poll all rode the same root.
	if names["client/http"] < 3 {
		t.Fatalf("want ≥3 client/http spans (submit, optimize, polls), got %d", names["client/http"])
	}
	if names["client/http"] != names["service/request"] {
		t.Fatalf("client/http (%d) and service/request (%d) spans should pair 1:1",
			names["client/http"], names["service/request"])
	}
	if names["service/job"] != 1 || names["service/job_spill"] != 1 {
		t.Fatalf("want exactly one job and one spill span, got %v", names)
	}

	// The flame rendering covers the same tree.
	flame, ok := d.st.Flame(traceID)
	if !ok {
		t.Fatalf("no flame rendering for %s", traceID)
	}
	for _, w := range []string{"service/job_spill", "harness/flow", "flow/orchestrate", "opt/resub"} {
		if !strings.Contains(flame, w) {
			t.Fatalf("flame output missing %q:\n%s", w, flame)
		}
	}
}

// TestTraceIdempotentReplay proves dedup-aware stitching: a second
// submit with the same Idempotency-Key but a different trace gets the
// original job back — its trace records an idempotent_replay event and
// runs no job of its own, while still reporting the prior job's ID.
func TestTraceIdempotentReplay(t *testing.T) {
	d := newTracedDaemon(t, service.Config{})

	fp, err := d.cl.SubmitAIG(context.Background(), e2eAIG(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"aig":%q,"flow":"orchestrate","seed":7}`, fp.Fingerprint)

	submit := func(ctx context.Context) (string, string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+"/v1/optimize", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "e2e-dedup-key")
		trace.Inject(ctx, req.Header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		return acc.ID, resp.Header.Get("X-Trace-Id")
	}

	ctxA, rootA := trace.Start(context.Background(), "test/first")
	idA, gotA := submit(ctxA)
	rootA.End()
	traceA := trace.FromContext(ctxA).TraceID.String()
	if gotA != traceA {
		t.Fatalf("X-Trace-Id = %q, want propagated %q", gotA, traceA)
	}
	if _, err := d.cl.Await(context.Background(), idA); err != nil {
		t.Fatal(err)
	}

	ctxB, rootB := trace.Start(context.Background(), "test/second")
	idB, _ := submit(ctxB)
	rootB.End()
	traceB := trace.FromContext(ctxB).TraceID.String()
	if traceB == traceA {
		t.Fatal("second submit should carry a distinct trace")
	}
	if idB != idA {
		t.Fatalf("dedup broke: job %q != %q", idB, idA)
	}

	// Trace A owns the job; trace B only witnessed the replay.
	awaitSpans(t, d.st, traceA, "service/job")
	vb := awaitSpans(t, d.st, traceB, "service/request")
	if n := spanNames(vb)["service/job"]; n != 0 {
		t.Fatalf("replay trace ran %d job spans, want 0", n)
	}
	replay := false
	for _, sp := range vb.Spans {
		for _, ev := range sp.Events {
			if ev.Name == "idempotent_replay" {
				replay = true
			}
		}
	}
	if !replay {
		t.Fatalf("replay trace missing idempotent_replay event: %+v", vb.Spans)
	}
}
