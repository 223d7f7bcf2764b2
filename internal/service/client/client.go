// Package client is the resilient Go client for aigd, the diversity
// daemon in internal/service. It exists because the harness side of a
// deployment talks to the daemon over a real network under real load,
// where the daemon legitimately answers "not now": 429 when an
// admission budget is full, 503 while draining for restart, transport
// errors while a new process comes up.
//
// The client turns those into a disciplined retry conversation instead
// of either giving up or hammering:
//
//   - capped exponential backoff with full jitter, honoring the
//     daemon's Retry-After hint as a floor for the next delay;
//   - strict deadline propagation — the context governs the request,
//     every backoff sleep, and is never out-waited: if the remaining
//     budget cannot cover the next delay the client fails now rather
//     than burning the caller's deadline asleep;
//   - a per-endpoint circuit breaker so a dead daemon costs one
//     cooldown per endpoint, not one timeout per call;
//   - idempotency keys on job submissions (drawn from a seeded
//     generator) so a retried POST /v1/optimize that actually reached
//     the daemon the first time dedups server-side instead of
//     double-spending an admission slot and creating a duplicate job.
//
// Only "try again later" answers are retried: 429, 503, and transport
// failures. 4xx contract errors are returned immediately as *APIError.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Config sizes a Client. The zero value plus a BaseURL is usable:
// every other field has a production default.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// HTTPClient, when set, replaces http.DefaultClient. Per-request
	// timeouts belong in the caller's context, not here.
	HTTPClient *http.Client

	// MaxAttempts bounds tries per call, first attempt included
	// (default 4).
	MaxAttempts int
	// AttemptTimeout, when positive, bounds each individual HTTP
	// attempt separately from the overall ctx deadline. Without it a
	// single stalled peer eats the caller's whole budget before any
	// retry or failover can happen; with it a slow attempt is cut off,
	// counted as retryable, and the remaining budget goes to the next
	// attempt (or, in cluster routing, the next replica). Default 0 =
	// off; the cluster's peer path always sets it.
	AttemptTimeout time.Duration
	// BaseBackoff and MaxBackoff shape the capped exponential backoff:
	// attempt n sleeps a full-jitter draw from
	// [0, min(MaxBackoff, BaseBackoff·2ⁿ)) (defaults 100ms and 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed feeds the jitter and idempotency-key generator; a fixed
	// seed replays the exact retry schedule (default 1).
	Seed int64

	// BreakerThreshold consecutive service failures open an endpoint's
	// breaker for BreakerCooldown (defaults 5 and 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// PollInterval paces Await's job polling (default 50ms).
	PollInterval time.Duration

	// Headers, when set, decorates every attempt's request headers.
	// The cluster layer and the gateway use it to stamp the membership
	// epoch (EpochHeader) onto peer traffic; reading the current epoch
	// at send time (rather than at client construction) is what lets a
	// long-lived client survive reconfigurations without being rebuilt.
	Headers func(h http.Header)
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	return c
}

// APIError is a non-retryable daemon answer: the request reached the
// daemon and was refused on contract grounds (bad AIGER, unknown
// fingerprint, unknown flow, ...).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("aigd: HTTP %d: %s", e.Status, e.Message)
}

// Client is a resilient aigd client. It is safe for concurrent use.
type Client struct {
	cfg  Config
	base string

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	breakers sync.Map // endpoint name → *breaker

	// sleep and now are injection points for tests; production uses
	// timer sleeps and time.Now.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
}

// New builds a Client. Only a missing BaseURL is an error.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: Config.BaseURL is required")
	}
	cfg = cfg.withDefaults()
	return &Client{
		cfg:   cfg,
		base:  strings.TrimRight(cfg.BaseURL, "/"),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sleep: sleepCtx,
		now:   time.Now,
	}, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) breakerFor(endpoint string) *breaker {
	if b, ok := c.breakers.Load(endpoint); ok {
		return b.(*breaker)
	}
	b, _ := c.breakers.LoadOrStore(endpoint, &breaker{
		threshold: c.cfg.BreakerThreshold,
		cooldown:  c.cfg.BreakerCooldown,
		now:       c.now,
	})
	return b.(*breaker)
}

// backoff draws the full-jitter delay for a (0-based) retry attempt.
func (c *Client) backoff(attempt int) time.Duration {
	ceil := c.cfg.BaseBackoff << attempt
	if ceil > c.cfg.MaxBackoff || ceil <= 0 {
		ceil = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(ceil) + 1))
}

// idemKey draws a fresh idempotency key. One key covers one logical
// submission across all its retries.
func (c *Client) idemKey() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("ck-%016x%016x", c.rng.Uint64(), c.rng.Uint64())
}

// retryAfter parses a Retry-After header as delay seconds (the only
// form the daemon emits). Absent or unparseable → 0.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do runs one retried HTTP conversation: body sent verbatim with
// contentType, response decoded into out (if non-nil) on 2xx.
// idemKey, when non-empty, rides every attempt as Idempotency-Key.
//
// The whole conversation is one "client/http" span — every retry is an
// event on it and every attempt carries the same traceparent, so the
// daemon stitches all attempts (and the dedup'd job they land on) to
// one trace. With tracing disabled locally, EnsureRoot still pins one
// root identity per conversation for the same stitching server-side.
func (c *Client) do(ctx context.Context, endpoint, method, path, contentType string, body []byte, idemKey string, out any) (err error) {
	ctx, sp := trace.Start(ctx, "client/http")
	ctx = trace.EnsureRoot(ctx)
	sp.Attr("endpoint", endpoint).Attr("method", method).Attr("path", path)
	defer sp.End()
	defer func() { sp.Fail(err) }()
	br := c.breakerFor(endpoint)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("aigd %s %s: %w (last failure: %v)", method, path, err, lastErr)
			}
			return fmt.Errorf("aigd %s %s: %w", method, path, err)
		}
		if err := br.allow(); err != nil {
			telemetry.Add("client/breaker_rejects", 1)
			return fmt.Errorf("aigd %s %s: %w", method, path, err)
		}

		retryable, hint, err := c.attempt(ctx, method, path, contentType, body, idemKey, out)
		if err == nil {
			br.report(true)
			return nil
		}
		// A contract refusal (or an epoch-mismatch 409, which proves
		// the daemon is up and answering) means the daemon is healthy;
		// only "not now" answers and transport failures count against
		// it.
		br.report(!retryable && (isAPIError(err) || isStaleEpoch(err)))
		lastErr = err
		if !retryable {
			return fmt.Errorf("aigd %s %s: %w", method, path, err)
		}
		telemetry.Add("client/retryable_failures", 1)
		if attempt+1 >= c.cfg.MaxAttempts {
			return fmt.Errorf("aigd %s %s: %d attempts exhausted: %w", method, path, c.cfg.MaxAttempts, lastErr)
		}

		delay := c.backoff(attempt)
		if hint > delay {
			// The daemon knows its backlog better than our jitter does.
			delay = hint
		}
		// Deadline propagation: never sleep past the caller's budget —
		// fail now with the real cause instead of waking up expired.
		if dl, ok := ctx.Deadline(); ok && c.now().Add(delay).After(dl) {
			return fmt.Errorf("aigd %s %s: deadline cannot cover %s backoff: %w", method, path, delay, lastErr)
		}
		telemetry.Add("client/retries", 1)
		trace.AddEvent(ctx, "retry", trace.A("attempt", attempt), trace.A("delay_ms", delay.Milliseconds()))
		if err := c.sleep(ctx, delay); err != nil {
			return fmt.Errorf("aigd %s %s: %w (last failure: %v)", method, path, err, lastErr)
		}
	}
}

func isAPIError(err error) bool {
	var ae *APIError
	return errors.As(err, &ae)
}

func isStaleEpoch(err error) bool {
	var se *StaleEpochError
	return errors.As(err, &se)
}

// attempt performs one HTTP round trip. retryable reports whether the
// failure is worth another attempt; hint carries the daemon's
// Retry-After, when present. A configured AttemptTimeout bounds this
// attempt alone: its expiry is a retryable service failure (the peer
// is slow), judged against the caller's ctx — only the caller's own
// cancellation is terminal.
func (c *Client) attempt(ctx context.Context, method, path, contentType string, body []byte, idemKey string, out any) (retryable bool, hint time.Duration, err error) {
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return false, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if c.cfg.Headers != nil {
		c.cfg.Headers(req.Header)
	}
	trace.Inject(ctx, req.Header)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Transport failure: daemon restarting, connection refused, ...
		// — unless it is really the caller's context, which must not be
		// retried into.
		return ctx.Err() == nil, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return true, 0, fmt.Errorf("reading response: %w", err)
	}

	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return false, 0, nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return false, 0, fmt.Errorf("decoding response: %w", err)
		}
		return false, 0, nil
	}

	msg := strings.TrimSpace(string(raw))
	var eresp struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
		msg = eresp.Error
	}
	apiErr := &APIError{Status: resp.StatusCode, Message: msg}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true, retryAfter(resp), apiErr
	case http.StatusConflict:
		// A structured epoch-mismatch 409 carries the answering node's
		// membership view; surface it as a typed error so routing
		// layers (gateway, cluster) can re-resolve membership instead
		// of treating the refusal as final. Retrying the same node with
		// the same stale epoch would only repeat the answer.
		var es EpochStatus
		if json.Unmarshal(raw, &es) == nil && es.Epoch > 0 && len(es.Members) > 0 {
			telemetry.Add("client/epoch_mismatches", 1)
			return false, 0, &StaleEpochError{Node: es.Node, Epoch: es.Epoch, Members: es.Members, Message: msg}
		}
		return false, 0, apiErr
	default:
		return false, 0, apiErr
	}
}

// --- request mirrors of the daemon's unexported wire types -------------

type metricsReq struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Metrics []string `json:"metrics,omitempty"`
}

type metricsResp struct {
	Scores map[string]float64 `json:"scores"`
}

type batchReq struct {
	AIGs    []string `json:"aigs"`
	Metrics []string `json:"metrics,omitempty"`
}

// BatchPair is one scored unordered pair of a batch call, indexed into
// the submitted fingerprint list.
type BatchPair struct {
	I      int                `json:"i"`
	J      int                `json:"j"`
	Scores map[string]float64 `json:"scores"`
}

type batchResp struct {
	Pairs []BatchPair `json:"pairs"`
}

type neighborsReq struct {
	FP     string `json:"fp"`
	K      int    `json:"k,omitempty"`
	Metric string `json:"metric,omitempty"`
	Exact  bool   `json:"exact,omitempty"`
	Budget int    `json:"budget,omitempty"`
}

type diverseReq struct {
	AIGs   []string `json:"aigs,omitempty"`
	K      int      `json:"k"`
	Metric string   `json:"metric,omitempty"`
}

type optimizeReq struct {
	AIG  string `json:"aig"`
	Flow string `json:"flow"`
	Seed int64  `json:"seed,omitempty"`
}

type reportReq struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Flows   []string `json:"flows,omitempty"`
	Metrics []string `json:"metrics,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
}

type jobAccepted struct {
	ID string `json:"id"`
}

// --- API surface -------------------------------------------------------

// SubmitAIG uploads an AIGER payload (ASCII or binary) and returns the
// daemon's content-addressed view of it.
func (c *Client) SubmitAIG(ctx context.Context, aiger []byte) (service.AIGView, error) {
	var v service.AIGView
	err := c.do(ctx, "aigs", http.MethodPost, "/v1/aigs", "application/octet-stream", aiger, "", &v)
	return v, err
}

// GetAIG fetches the stored view of a fingerprint.
func (c *Client) GetAIG(ctx context.Context, fp string) (service.AIGView, error) {
	var v service.AIGView
	err := c.do(ctx, "aigs", http.MethodGet, "/v1/aigs/"+fp, "", nil, "", &v)
	return v, err
}

// Metrics scores one stored pair. Empty metrics means the daemon's
// full metric set.
func (c *Client) Metrics(ctx context.Context, a, b string, metrics []string) (map[string]float64, error) {
	body, err := json.Marshal(metricsReq{A: a, B: b, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	var resp metricsResp
	if err := c.do(ctx, "metrics", http.MethodPost, "/v1/metrics", "application/json", body, "", &resp); err != nil {
		return nil, err
	}
	return resp.Scores, nil
}

// MetricsBatch scores every unordered pair among stored fingerprints.
func (c *Client) MetricsBatch(ctx context.Context, fps []string, metrics []string) ([]BatchPair, error) {
	body, err := json.Marshal(batchReq{AIGs: fps, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	var resp batchResp
	if err := c.do(ctx, "batch", http.MethodPost, "/v1/metrics/batch", "application/json", body, "", &resp); err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// NeighborsOptions tunes a k-NN query; the zero value uses the
// daemon's defaults (k=10, WLKernel, sketch-pruned with the default
// candidate budget).
type NeighborsOptions struct {
	K      int
	Metric string
	// Exact forces the ground-truth full-corpus scan.
	Exact bool
	// Budget caps sketch-pruned candidates getting full evaluation.
	Budget int
}

// Neighbors runs a k-NN query for a stored fingerprint.
func (c *Client) Neighbors(ctx context.Context, fp string, opts NeighborsOptions) (service.NeighborsResponse, error) {
	body, err := json.Marshal(neighborsReq{
		FP: fp, K: opts.K, Metric: opts.Metric, Exact: opts.Exact, Budget: opts.Budget,
	})
	if err != nil {
		return service.NeighborsResponse{}, err
	}
	var resp service.NeighborsResponse
	err = c.do(ctx, "neighbors", http.MethodPost, "/v1/neighbors", "application/json", body, "", &resp)
	return resp, err
}

// DiverseSubset runs greedy max-min diversity selection over stored
// fingerprints (nil pool = the daemon's whole corpus).
func (c *Client) DiverseSubset(ctx context.Context, pool []string, k int, metric string) (service.DiverseResponse, error) {
	body, err := json.Marshal(diverseReq{AIGs: pool, K: k, Metric: metric})
	if err != nil {
		return service.DiverseResponse{}, err
	}
	var resp service.DiverseResponse
	err = c.do(ctx, "diverse", http.MethodPost, "/v1/diverse-subset", "application/json", body, "", &resp)
	return resp, err
}

// Optimize submits an async optimization job and returns its ID. The
// submission carries a generated idempotency key, so a retry that
// races a slow first attempt lands on the same job server-side.
func (c *Client) Optimize(ctx context.Context, fp, flow string, seed int64) (string, error) {
	body, err := json.Marshal(optimizeReq{AIG: fp, Flow: flow, Seed: seed})
	if err != nil {
		return "", err
	}
	var acc jobAccepted
	if err := c.do(ctx, "optimize", http.MethodPost, "/v1/optimize", "application/json", body, c.idemKey(), &acc); err != nil {
		return "", err
	}
	return acc.ID, nil
}

// Report submits an async ROD-style pair report job and returns its
// ID, idempotency-keyed like Optimize.
func (c *Client) Report(ctx context.Context, a, b string, flows, metrics []string, seed int64) (string, error) {
	body, err := json.Marshal(reportReq{A: a, B: b, Flows: flows, Metrics: metrics, Seed: seed})
	if err != nil {
		return "", err
	}
	var acc jobAccepted
	if err := c.do(ctx, "report", http.MethodPost, "/v1/report", "application/json", body, c.idemKey(), &acc); err != nil {
		return "", err
	}
	return acc.ID, nil
}

// Healthz probes the daemon's liveness endpoint once, without retries
// or backoff — transport failure or a non-2xx answer returns
// immediately. Probe loops (cluster health checking) call this on a
// schedule; routing its failures through the retry/breaker machinery
// would make probe cadence depend on breaker cooldowns.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return &APIError{Status: resp.StatusCode, Message: "healthz"}
	}
	return nil
}

// OpenBreakers returns the (sorted) endpoints whose circuit breaker is
// currently refusing requests. The cluster layer folds this into peer
// health: an open breaker is the client-side symptom of a degraded
// peer, so routing evicts the peer instead of paying a cooldown per
// call.
func (c *Client) OpenBreakers() []string {
	var open []string
	c.breakers.Range(func(k, v any) bool {
		if v.(*breaker).open() {
			open = append(open, k.(string))
		}
		return true
	})
	sort.Strings(open)
	return open
}

// Job polls a job once.
func (c *Client) Job(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	err := c.do(ctx, "jobs", http.MethodGet, "/v1/jobs/"+id, "", nil, "", &v)
	return v, err
}

// Cancel requests job cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	err := c.do(ctx, "jobs", http.MethodDelete, "/v1/jobs/"+id, "", nil, "", &v)
	return v, err
}

// Await polls a job until it reaches a terminal state or ctx expires.
// A failed or canceled job is returned with a nil error — the JobView
// carries the outcome; Await errors only mean the conversation itself
// broke.
func (c *Client) Await(ctx context.Context, id string) (service.JobView, error) {
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return service.JobView{}, err
		}
		switch v.Status {
		case service.JobDone, service.JobFailed, service.JobCanceled:
			return v, nil
		}
		if err := c.sleep(ctx, c.cfg.PollInterval); err != nil {
			return service.JobView{}, fmt.Errorf("awaiting job %s: %w", id, err)
		}
	}
}
