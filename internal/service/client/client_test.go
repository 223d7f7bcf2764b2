package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aiger"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/tt"
)

// testAIG synthesizes a deterministic small AIG (distinct per seed) and
// returns its AIGER ASCII encoding.
func testAIG(t *testing.T, seed int64) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := synth.SynthSOP([]tt.TT{tt.Random(6, r)})
	var b bytes.Buffer
	if err := aiger.WriteASCII(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// newDaemon spins up a real aigd over httptest and a client pointed at
// it with instant (recorded, not slept) backoffs.
func newDaemon(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.Enable()
	reg.Reset()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts, reg
}

// newClient builds a client whose sleeps return instantly and are
// recorded, so retry schedules are asserted, never waited for.
func newClient(t *testing.T, cfg Config) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return nil
	}
	return c, slept
}

// TestClientEndToEnd drives every client method against a real daemon.
func TestClientEndToEnd(t *testing.T) {
	_, ts, _ := newDaemon(t, service.Config{Workers: 2})
	c, _ := newClient(t, Config{BaseURL: ts.URL})
	ctx := context.Background()

	a, err := c.SubmitAIG(ctx, testAIG(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitAIG(ctx, testAIG(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatalf("distinct AIGs collided on %s", a.Fingerprint)
	}
	if got, err := c.GetAIG(ctx, a.Fingerprint); err != nil || got.Fingerprint != a.Fingerprint {
		t.Fatalf("GetAIG = %+v, %v", got, err)
	}

	scores, err := c.Metrics(ctx, a.Fingerprint, b.Fingerprint, []string{"VEO"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scores["VEO"]; !ok {
		t.Fatalf("metrics missing VEO: %v", scores)
	}
	pairs, err := c.MetricsBatch(ctx, []string{a.Fingerprint, b.Fingerprint}, []string{"VEO"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("batch pairs = %d, want 1", len(pairs))
	}

	id, err := c.Optimize(ctx, a.Fingerprint, "", 7)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Await(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != service.JobDone {
		t.Fatalf("optimize job ended %s (%s)", v.Status, v.Error)
	}

	rid, err := c.Report(ctx, a.Fingerprint, b.Fingerprint, []string{"dc2"}, []string{"VEO"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.Await(ctx, rid); err != nil || v.Status != service.JobDone {
		t.Fatalf("report job ended %+v, %v", v, err)
	}

	// Contract errors surface as *APIError without retries.
	if _, err := c.GetAIG(ctx, "nope"); err == nil {
		t.Fatal("expected error for unknown fingerprint")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
			t.Fatalf("want 404 APIError, got %v", err)
		}
	}
}

// TestClientRetriesThenSucceeds proves the retry loop rides out
// transient saturation and that the daemon's Retry-After floor is
// honored over the jittered backoff.
func TestClientRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated, retry later"}`)
			return
		}
		fmt.Fprint(w, `{"fingerprint":"abc"}`)
	}))
	defer ts.Close()

	c, slept := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	v, err := c.GetAIG(context.Background(), "abc")
	if err != nil {
		t.Fatal(err)
	}
	if v.Fingerprint != "abc" {
		t.Fatalf("fingerprint = %q", v.Fingerprint)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(*slept) != 2 {
		t.Fatalf("sleeps = %v, want 2 entries", *slept)
	}
	for _, d := range *slept {
		if d < 7*time.Second {
			t.Fatalf("backoff %v ignored Retry-After: 7", d)
		}
	}
}

// TestDefaultClientsDrawDistinctKeys: two clients built without a Seed
// submit different optimize jobs to one daemon. The daemon refuses a
// reused Idempotency-Key on a different request with 422, so both
// submissions are accepted only if the clients draw different keys.
func TestDefaultClientsDrawDistinctKeys(t *testing.T) {
	_, ts, _ := newDaemon(t, service.Config{Workers: 2})
	ctx := context.Background()
	var ids []string
	for i := int64(1); i <= 2; i++ {
		c, _ := newClient(t, Config{BaseURL: ts.URL})
		v, err := c.SubmitAIG(ctx, testAIG(t, i))
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Optimize(ctx, v.Fingerprint, "", 7)
		if err != nil {
			t.Fatalf("client %d: optimize refused: %v", i, err)
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Fatalf("two different jobs share the id %s", ids[0])
	}
}

// TestClientBackoffDeterminism: same seed, same jitter schedule.
func TestClientBackoffDeterminism(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		c, err := New(Config{BaseURL: "http://invalid", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = c.backoff(i)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, a[i], b[i])
		}
		ceil := 100 * time.Millisecond << i
		if ceil > 5*time.Second {
			ceil = 5 * time.Second
		}
		if a[i] < 0 || a[i] > ceil {
			t.Fatalf("backoff[%d] = %v outside [0, %v]", i, a[i], ceil)
		}
	}
}

// TestClientDeadlinePropagation: the client must not sleep past the
// caller's deadline — it fails immediately with the last real cause.
func TestClientDeadlinePropagation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()

	c, slept := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 5})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.GetAIG(ctx, "abc")
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "deadline cannot cover") {
		t.Fatalf("error does not name the deadline: %v", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("client slept %v with a 1s budget and a 30s hint", *slept)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v, should fail fast", elapsed)
	}
}

// TestClientBreaker: consecutive service failures open the endpoint's
// breaker (requests are refused locally), the cooldown admits one
// half-open probe, and a probe success closes the breaker again.
func TestClientBreaker(t *testing.T) {
	var fail atomic.Bool
	var calls atomic.Int64
	fail.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if fail.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"down"}`)
			return
		}
		fmt.Fprint(w, `{"fingerprint":"abc"}`)
	}))
	defer ts.Close()

	c, _ := newClient(t, Config{
		BaseURL: ts.URL, MaxAttempts: 1,
		BreakerThreshold: 2, BreakerCooldown: 10 * time.Second,
	})
	var clock atomic.Int64
	base := time.Unix(1700000000, 0)
	c.now = func() time.Time { return base.Add(time.Duration(clock.Load())) }

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.GetAIG(ctx, "abc"); err == nil {
			t.Fatal("expected failure")
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("daemon saw %d calls, want 2", got)
	}
	// Threshold reached: the breaker now fails fast without touching
	// the daemon.
	if _, err := c.GetAIG(ctx, "abc"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("open breaker let a request through (%d calls)", got)
	}

	// Cooldown elapses; the half-open probe reaches a recovered daemon
	// and the breaker closes for good.
	fail.Store(false)
	clock.Store(int64(11 * time.Second))
	if _, err := c.GetAIG(ctx, "abc"); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := c.GetAIG(ctx, "abc"); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("daemon saw %d calls, want 4", got)
	}
}

// dropOnce simulates a lost response: the request reaches the daemon
// and is fully processed, but the client never sees the answer.
type dropOnce struct {
	rt      http.RoundTripper
	mu      sync.Mutex
	dropped bool
}

func (d *dropOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.rt.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dropped && req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/v1/optimize") {
		d.dropped = true
		_ = resp.Body.Close()
		return nil, fmt.Errorf("simulated response loss")
	}
	return resp, nil
}

// TestClientIdempotentRetry: a retried submission whose first attempt
// actually reached the daemon dedups server-side — one job, one
// admission slot, and the replay is visible in telemetry.
func TestClientIdempotentRetry(t *testing.T) {
	_, ts, reg := newDaemon(t, service.Config{Workers: 2})
	c, _ := newClient(t, Config{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: &dropOnce{rt: http.DefaultTransport}},
	})
	ctx := context.Background()

	a, err := c.SubmitAIG(ctx, testAIG(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Optimize(ctx, a.Fingerprint, "", 7)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Await(ctx, id)
	if err != nil || v.Status != service.JobDone {
		t.Fatalf("job ended %+v, %v", v, err)
	}
	if got := reg.Counter("service/jobs_submitted").Value(); got != 1 {
		t.Fatalf("jobs_submitted = %d, want 1 (duplicate job scheduled)", got)
	}
	if got := reg.Counter("service/idempotent_replays").Value(); got != 1 {
		t.Fatalf("idempotent_replays = %d, want 1", got)
	}
}

// TestClientSaturatedDaemon: with the pool-submit fault armed the
// daemon sheds every job submission; the client retries its budget and
// surfaces the 429, and the daemon stays fully serviceable afterwards.
func TestClientSaturatedDaemon(t *testing.T) {
	_, ts, _ := newDaemon(t, service.Config{Workers: 2})
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})

	c, slept := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 3})
	ctx := context.Background()
	a, err := c.SubmitAIG(ctx, testAIG(t, 4))
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(service.PointPoolSubmit, faultinject.Always(), faultinject.Fault{Mode: faultinject.ModeError})
	faultinject.Enable()
	_, err = c.Optimize(ctx, a.Fingerprint, "", 7)
	if err == nil {
		t.Fatal("expected saturation failure")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("want 429 APIError, got %v", err)
	}
	if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("error does not show exhausted retries: %v", err)
	}
	if len(*slept) != 2 {
		t.Fatalf("retry sleeps = %v, want 2", *slept)
	}

	// Disarm: the daemon recovers without restart, and the 429s did not
	// leak admission slots — the full job pipeline still works.
	faultinject.Disable()
	faultinject.Reset()
	id, err := c.Optimize(ctx, a.Fingerprint, "", 7)
	if err != nil {
		t.Fatalf("daemon did not recover: %v", err)
	}
	if v, err := c.Await(ctx, id); err != nil || v.Status != service.JobDone {
		t.Fatalf("post-recovery job ended %+v, %v", v, err)
	}
}
