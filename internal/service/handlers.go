package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/harness"
	"repro/internal/opt"
	"repro/internal/simil"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tt"
)

// maxAIGERBody bounds a submitted AIGER payload (16 MiB is orders of
// magnitude above anything the framework's workloads produce).
const maxAIGERBody = 16 << 20

// maxBatchAIGs bounds one all-pairs batch request. Batches above
// maxBatchExact are routed through sketch pruning — full metric
// evaluation is spent only on pairs some LSH band considers similar —
// which is what makes the raised cap affordable; beyond it, split into
// multiple batches (the result cache makes the overlap free).
const (
	maxBatchAIGs  = 512
	maxBatchExact = 64
)

// --- wire types --------------------------------------------------------
//
// The daemon's request and response bodies. internal/service/client
// marshals these same structs, so the wire contract has one copy.

// AIGView describes one stored AIG.
type AIGView struct {
	Fingerprint string `json:"fingerprint"`
	PIs         int    `json:"pis"`
	POs         int    `json:"pos"`
	Ands        int    `json:"ands"`
	Levels      int    `json:"levels"`
	// Known reports that the submitted structure was already in the
	// store — the content-addressed fast path.
	Known bool `json:"known"`
}

// MetricsRequest is the POST /v1/metrics body: a stored pair and the
// metrics to score it by (empty = all of them).
type MetricsRequest struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Metrics []string `json:"metrics,omitempty"`
}

// MetricsResponse carries one pair's scores.
type MetricsResponse struct {
	A      string             `json:"a"`
	B      string             `json:"b"`
	Scores map[string]float64 `json:"scores"`
}

// BatchRequest is the POST /v1/metrics/batch body: stored fingerprints
// whose every unordered pair is scored.
type BatchRequest struct {
	AIGs    []string `json:"aigs"`
	Metrics []string `json:"metrics,omitempty"`
}

// BatchResponse carries a batch's scored pairs.
type BatchResponse struct {
	AIGs []string `json:"aigs"`
	// Pairs holds one entry per unordered pair, indexed into AIGs.
	Pairs []BatchPair `json:"pairs"`
	// Pruned reports that the batch exceeded maxBatchExact and the
	// sketch index pre-filtered the pair loop; PrunedPairs counts the
	// pairs skipped without full evaluation.
	Pruned      bool `json:"pruned,omitempty"`
	PrunedPairs int  `json:"pruned_pairs,omitempty"`
}

// BatchCapError is the structured over-cap refusal: the client learns
// the actual cap and its own request size, not just a bare 400.
type BatchCapError struct {
	Error string `json:"error"`
	Cap   int    `json:"cap"`
	Size  int    `json:"size"`
}

// BatchPair is one scored unordered pair of a batch, indexed into the
// submitted fingerprint list.
type BatchPair struct {
	I      int                `json:"i"`
	J      int                `json:"j"`
	Scores map[string]float64 `json:"scores"`
}

// OptimizeRequest is the POST /v1/optimize body (flow default
// orchestrate).
type OptimizeRequest struct {
	AIG  string `json:"aig"`
	Flow string `json:"flow"`
	Seed int64  `json:"seed,omitempty"`
}

// OptimizeResult is an optimize job's output. The optimized structure
// is interned back into the store, so its fingerprint is immediately
// usable in metric and report requests.
type OptimizeResult struct {
	Fingerprint          string `json:"fingerprint"`
	Flow                 string `json:"flow"`
	Seed                 int64  `json:"seed"`
	GatesBefore          int    `json:"gates_before"`
	GatesAfter           int    `json:"gates_after"`
	LevelsBefore         int    `json:"levels_before"`
	LevelsAfter          int    `json:"levels_after"`
	OptimizedFingerprint string `json:"optimized_fingerprint"`
	AIGER                string `json:"aiger"`
}

// ReportRequest is the POST /v1/report body (empty flows or metrics =
// all of them).
type ReportRequest struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Flows   []string `json:"flows,omitempty"`
	Metrics []string `json:"metrics,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
}

// JobAccepted is the 202 answer to a job submission.
type JobAccepted struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Poll   string    `json:"poll"`
}

// ErrorResponse is the body of every JSON refusal, on the daemon's
// routes and the cluster's peer routes alike.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- plumbing ----------------------------------------------------------

// Replies is the JSON reply path of one HTTP surface. The daemon's
// routes and the cluster's peer routes share it; each surface counts
// its refusals and its failed writes under its own names.
type Replies struct{ httpErrors, writeErrors string }

// NewReplies names a surface's counters: httpErrors counts refusals,
// writeErrors response writes that failed because the client is gone.
func NewReplies(httpErrors, writeErrors string) Replies {
	return Replies{httpErrors: httpErrors, writeErrors: writeErrors}
}

// replies is the reply path of the daemon's own routes.
var replies = NewReplies("service/http_errors", "service/write_errors")

// JSON writes v as the body of a code response. An encode/write
// failure means the client is gone; it is counted, not propagated.
func (rp Replies) JSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		telemetry.Add(rp.writeErrors, 1)
	}
}

// refuse counts a refusal and writes body as its JSON answer.
func (rp Replies) refuse(w http.ResponseWriter, code int, body any) {
	telemetry.Add(rp.httpErrors, 1)
	rp.JSON(w, code, body)
}

// Error refuses a request with an ErrorResponse.
func (rp Replies) Error(w http.ResponseWriter, code int, format string, args ...any) {
	rp.refuse(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Shed refuses a request from a saturated endpoint: 429 plus a
// Retry-After hint so well-behaved clients back off instead of
// hammering. The refusal is stamped onto the request's trace so a shed
// storm is attributable per request, not just as a counter. rp is the
// reply path of the surface the request arrived on.
func (s *Server) Shed(w http.ResponseWriter, r *http.Request, rp Replies) {
	trace.AddEvent(r.Context(), "admission_shed")
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	rp.Error(w, http.StatusTooManyRequests, "saturated, retry later")
}

// retryAfterSeconds scales the shed hint with the actual state of the
// daemon instead of a constant: an idle daemon says "1", one with a
// deep backlog tells clients to stay away for roughly the number of
// queue "waves" its workers still have to absorb, and a draining
// daemon points at its estimated remaining handoff backlog (the drain
// hint, when the cluster layer installed one) or past its drain budget
// otherwise. Capped so a pathological backlog never tells clients to
// disappear for minutes.
func (s *Server) retryAfterSeconds() int {
	const capSeconds = 30
	if s.draining.Load() {
		if fn := s.drainHint.Load(); fn != nil {
			if hint := (*fn)(); hint > 0 {
				if hint > capSeconds {
					hint = capSeconds
				}
				return hint
			}
		}
		return capSeconds
	}
	workers := s.pool.workers
	if workers < 1 {
		workers = 1
	}
	pendingJobs := int(s.jobsAdm.pending.Load())
	backlog := s.pool.backlog() + pendingJobs
	hint := 1 + backlog/workers
	if hint > capSeconds {
		hint = capSeconds
	}
	return hint
}

// decodeJSON decodes a request body into v, refusing unknown fields.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxAIGERBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// lookup returns the stored entry for fp; a miss is ErrUnknownFingerprint.
func (s *Server) lookup(fp string) (*storedAIG, error) {
	if e, ok := s.store.get(fp); ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w %q (submit it via POST /v1/aigs first)", ErrUnknownFingerprint, fp)
}

// pooled runs f on the bounded worker pool under a service/queue_wait
// span that ends when a worker picks f up. It returns the pool's
// refusal — ErrBusy, or ctx's error when the caller stopped waiting —
// or else f's own error. After a refusal f may still run later, so the
// caller must not read what f writes unless pooled returned nil.
func (s *Server) pooled(ctx context.Context, f func() error) error {
	var ferr error
	_, qspan := trace.Start(ctx, "service/queue_wait")
	if err := s.pool.run(ctx, func() {
		qspan.End()
		ferr = f()
	}); err != nil {
		qspan.Fail(err).End()
		return err
	}
	return ferr
}

// replyFailed answers a request whose scoring failed: an unknown
// fingerprint is 404 and a saturated pool sheds with 429. A client
// disconnect (context cancellation) is counted and answered with
// 499-style semantics — the client is gone; the 503 is unread — and
// carries the same scaled Retry-After as the 429s, so clients refused
// on the drain path back off by the backlog estimate, not blindly.
// Anything else is a 500.
func (s *Server) replyFailed(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrUnknownFingerprint):
		replies.Error(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrBusy):
		s.Shed(w, r, replies)
	case r.Context().Err() != nil:
		telemetry.Add("service/client_disconnects", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		replies.Error(w, http.StatusServiceUnavailable, "%v", err)
	default:
		replies.Error(w, http.StatusInternalServerError, "%v", err)
	}
}

// route is one entry of the daemon's route table.
type route struct {
	pattern string
	handle  http.HandlerFunc
	// adm, when set, is the admission budget the request holds while
	// its handler runs; a full budget sheds it with 429.
	adm *admission
}

// routes is the daemon's fixed route table. Each pattern drives its
// mux registration, its RED metric names — adding a route is what
// creates its metric families, so cardinality is bounded by this list,
// never by traffic — and its admission. Job submissions hold their
// admission slot past the request, so submitJob admits them itself.
func (s *Server) routes() []route {
	return []route{
		{"POST /v1/aigs", s.handleSubmitAIG, nil},
		{"GET /v1/aigs/{fp}", s.handleGetAIG, nil},
		{"POST /v1/metrics", s.handleMetrics, &s.metricsAdm},
		{"POST /v1/metrics/batch", s.handleMetricsBatch, &s.metricsAdm},
		{"POST /v1/neighbors", s.handleNeighbors, &s.metricsAdm},
		{"POST /v1/diverse-subset", s.handleDiverse, &s.metricsAdm},
		{"POST /v1/optimize", s.handleOptimize, nil},
		{"POST /v1/report", s.handleReport, nil},
		{"GET /v1/jobs/{id}", s.replyJob(s.jobs.get), nil},
		{"DELETE /v1/jobs/{id}", s.replyJob(s.jobs.cancelJob), nil},
	}
}

// Handler returns the daemon's HTTP API: every route of the table
// behind guard, which refuses with 503 once the server is draining, and
// GET /healthz outside it, because it must answer while draining. When
// a trace store is configured, the read-only trace debug endpoints are
// mounted alongside the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, s.guard(rt))
	}
	if s.cfg.Trace != nil {
		mux.Handle("GET /v1/debug/traces", s.cfg.Trace.Handler())
		mux.Handle("GET /v1/debug/traces/{id}", s.cfg.Trace.Handler())
	}
	return mux
}

// statusRecorder captures the status code and body size a handler
// writes, for the request span, RED metrics, and the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += n
	return n, err
}

// guard wraps a route's handler with the drain gate, admission and
// request accounting: it opens the "service/request" span every
// downstream span hangs off (adopting the caller's traceparent), and
// on completion feeds the RED metrics and the structured access log.
func (s *Server) guard(rt route) http.HandlerFunc {
	ep := newRedEndpoint(rt.pattern, s.cfg.SLOTarget)
	return func(w http.ResponseWriter, r *http.Request) {
		telemetry.Add("service/requests", 1)
		ctx, sp := trace.StartServer(w, r, "service/request")
		sp.Attr("endpoint", ep.path).Attr("method", r.Method)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		if s.draining.Load() {
			rec.Header().Set("Connection", "close")
			rec.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			replies.Error(rec, http.StatusServiceUnavailable, "draining")
		} else {
			s.admit(rt, rec, r.WithContext(ctx))
		}
		d := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		sp.Attr("status", rec.status)
		if rec.status >= 500 {
			sp.Fail(fmt.Errorf("http %d", rec.status))
		}
		sp.End()
		ep.record(rec.status, d)
		s.logAccess(sp, r, ep, rec, d)
	}
}

// admit runs a route's handler inside its admission budget, if it has
// one.
func (s *Server) admit(rt route, w http.ResponseWriter, r *http.Request) {
	if rt.adm != nil {
		if !rt.adm.enter() {
			s.Shed(w, r, replies)
			return
		}
		defer rt.adm.leave()
	}
	rt.handle(w, r)
}

// logAccess emits one structured access-log line per finished request
// on the configured JSONL event stream (no-op when none is set).
func (s *Server) logAccess(sp *trace.Span, r *http.Request, ep *redEndpoint, rec *statusRecorder, d time.Duration) {
	if s.cfg.Events == nil {
		return
	}
	fields := map[string]any{
		"method":      r.Method,
		"path":        r.URL.Path,
		"endpoint":    ep.path,
		"status":      rec.status,
		"bytes":       rec.bytes,
		"duration_ms": float64(d) / float64(time.Millisecond),
	}
	if sc := sp.Context(); sc.Valid() {
		fields["trace_id"] = sc.TraceID.String()
	}
	s.cfg.Events.Log("http_request", fields)
}

// --- endpoints ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	replies.JSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
		"aigs":     s.store.len(),
	})
}

// handleSubmitAIG accepts an AIGER payload (ASCII or binary), validates
// it with the structural verifier, and interns it content-addressed:
// resubmitting an identical structure returns the same fingerprint
// without re-validating or re-profiling anything.
func (s *Server) handleSubmitAIG(w http.ResponseWriter, r *http.Request) {
	v, err := s.intern(r.Context(), http.MaxBytesReader(w, r.Body, maxAIGERBody))
	if err != nil {
		replies.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.onIntern != nil {
		// Cluster mode: hand the submission to the replication layer
		// (it fans out asynchronously; the response does not wait on
		// peers).
		s.onIntern(r.Context(), v)
	}
	replies.JSON(w, http.StatusOK, v)
}

// intern parses, validates, and interns one AIGER payload — the one
// intern path of external submissions, replication receives and inline
// fill payloads. It interns the PO-reachable cone only. The fingerprint
// deliberately ignores dangling nodes, so two submissions differing
// only in dead cones collide on one key; without Cleanup the stored
// stats and profiles would depend on whichever structure arrived first,
// which would break the hit-equals-fresh-computation invariant.
func (s *Server) intern(ctx context.Context, payload io.Reader) (AIGView, error) {
	g, err := aiger.Read(payload)
	if err != nil {
		return AIGView{}, fmt.Errorf("parsing AIGER: %w", err)
	}
	if err := g.Check(); err != nil {
		return AIGView{}, fmt.Errorf("invalid AIG: %w", err)
	}
	ictx, ispan := trace.Start(ctx, "service/store_intern")
	e, known := s.store.put(ictx, g.Cleanup())
	ispan.Attr("fingerprint", e.fp).Attr("known", known)
	ispan.End()
	return viewOf(e, known), nil
}

func viewOf(e *storedAIG, known bool) AIGView {
	return AIGView{
		Fingerprint: e.fp,
		PIs:         e.stats.PIs, POs: e.stats.POs,
		Ands: e.stats.Ands, Levels: e.stats.Levels,
		Known: known,
	}
}

func (s *Server) handleGetAIG(w http.ResponseWriter, r *http.Request) {
	e, ok := s.store.get(r.PathValue("fp"))
	if !ok {
		replies.Error(w, http.StatusNotFound, "unknown fingerprint %q", r.PathValue("fp"))
		return
	}
	replies.JSON(w, http.StatusOK, viewOf(e, true))
}

// resolvePair looks up both referenced AIGs.
func (s *Server) resolvePair(fpA, fpB string) (ea, eb *storedAIG, err error) {
	if ea, err = s.lookup(fpA); err != nil {
		return nil, nil, err
	}
	if eb, err = s.lookup(fpB); err != nil {
		return nil, nil, err
	}
	return ea, eb, nil
}

// handleMetrics serves pairwise similarity/dissimilarity scores for two
// previously submitted AIGs. The computation runs on the bounded worker
// pool; a saturated pool sheds with 429.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var req MetricsRequest
	if err := decodeJSON(r, &req); err != nil {
		replies.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	metrics, err := resolveMetrics(req.Metrics)
	if err != nil {
		replies.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	var scores map[string]float64
	if s.pairRouter != nil {
		// Cluster mode: the router owns the whole resolution — local
		// store (fetching missing AIGs from their ring owners), local
		// cache, peer fill from the pair's owner, or a (pooled) local
		// compute. Saturation anywhere on that path sheds like a local
		// full queue would, and a cluster-wide store miss answers 404
		// like a local one would.
		names := make([]string, len(metrics))
		for i, m := range metrics {
			names[i] = m.Name
		}
		scores, err = s.pairRouter(r.Context(), req.A, req.B, names)
	} else {
		scores, err = s.scorePair(r.Context(), req.A, req.B, metrics)
	}
	if err != nil {
		s.replyFailed(w, r, err)
		return
	}
	replies.JSON(w, http.StatusOK, MetricsResponse{A: req.A, B: req.B, Scores: scores})
}

// handleMetricsBatch scores every unordered pair among n submitted
// AIGs. This is the batch path the store and profile cache exist for:
// per-graph preprocessing runs once per graph (n profiles), not once
// per pair (n·(n−1) would-be profiles).
func (s *Server) handleMetricsBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		replies.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.AIGs) < 2 {
		replies.Error(w, http.StatusBadRequest, "batch needs at least 2 AIGs, got %d", len(req.AIGs))
		return
	}
	if len(req.AIGs) > maxBatchAIGs {
		telemetry.Add("service/batch_shed", 1)
		replies.refuse(w, http.StatusBadRequest, BatchCapError{
			Error: fmt.Sprintf("batch of %d AIGs exceeds the limit of %d; split it into smaller batches", len(req.AIGs), maxBatchAIGs),
			Cap:   maxBatchAIGs,
			Size:  len(req.AIGs),
		})
		return
	}
	metrics, err := resolveMetrics(req.Metrics)
	if err != nil {
		replies.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	entries := make([]*storedAIG, len(req.AIGs))
	for i, fp := range req.AIGs {
		if entries[i], err = s.lookup(fp); err != nil {
			s.replyFailed(w, r, err)
			return
		}
	}
	resp := BatchResponse{AIGs: req.AIGs}
	// Oversized batches go two-stage: an ephemeral sketch index over
	// just the batch population picks the candidate pairs, and the
	// O(n²) full-evaluation loop shrinks to the pairs some LSH band
	// considers similar.
	prune := len(req.AIGs) > maxBatchExact
	ctx := r.Context()
	err = s.pooled(ctx, func() error {
		// Coalesce the batch's per-graph work up front: one profile per
		// graph covering the union of artifact needs.
		needs := simil.Needs(metrics)
		if prune {
			needs |= simil.NeedSketch
		}
		sigs := make([]*sketch.Signature, len(entries))
		for i, e := range entries {
			if err := ctx.Err(); err != nil { // client gone: free the worker
				return err
			}
			p, err := s.profileFor(ctx, e, needs)
			if err != nil {
				return err
			}
			sigs[i] = p.Sketch()
		}
		allowedFP := make(map[[2]string]bool)
		if prune {
			ix := sketch.NewIndex()
			inserted := make(map[string]bool, len(entries))
			for i, e := range entries {
				if !inserted[e.fp] {
					inserted[e.fp] = true
					ix.Insert(e.fp, sigs[i])
				}
			}
			for _, p := range ix.CandidatePairs(pruneFamilies(metrics)) {
				allowedFP[p] = true
			}
		}
		for i := 0; i < len(entries); i++ {
			for j := i + 1; j < len(entries); j++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				// Identical fingerprints always evaluate (the index holds
				// one entry per fingerprint, so banding cannot vouch for
				// them) — their scores are trivial and cache-shared anyway.
				if prune && entries[i].fp != entries[j].fp {
					a, b := entries[i].fp, entries[j].fp
					if a > b {
						a, b = b, a
					}
					if !allowedFP[[2]string{a, b}] {
						resp.PrunedPairs++
						continue
					}
				}
				scores, err := s.pairScores(ctx, entries[i], entries[j], metrics)
				if err != nil {
					return err
				}
				resp.Pairs = append(resp.Pairs, BatchPair{I: i, J: j, Scores: scores})
			}
		}
		if prune {
			resp.Pruned = true
			telemetry.Add("sketch/candidates", int64(len(resp.Pairs)))
			telemetry.Add("sketch/exact_evals", int64(len(resp.Pairs)))
			telemetry.Add("sketch/pruned", int64(resp.PrunedPairs))
		}
		return nil
	})
	if err != nil {
		s.replyFailed(w, r, err)
		return
	}
	replies.JSON(w, http.StatusOK, resp)
}

// --- jobs --------------------------------------------------------------

// submitJob is the one submission path of /v1/optimize and /v1/report:
// admission, decode into req, resolve (which validates req and returns
// the job body), schedule, accept. Every refusal — a bad request, an
// Idempotency-Key reused for another request (422), a full queue —
// gives the admission slot back in one place. An accepted job owns the
// slot until its pool task exits, on every path including cancellation
// while still queued; a deduplicated replay schedules nothing, and the
// original submission's slot already covers the job.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, kind string, req any, resolve func() (jobRun, error)) {
	if !s.jobsAdm.enter() {
		s.Shed(w, r, replies)
		return
	}
	j, owned, err := s.scheduleJob(r, kind, req, resolve)
	if !owned {
		// Before the reply: a shed's Retry-After counts pending jobs.
		s.jobsAdm.leave()
	}
	switch {
	case err == nil:
		s.accept(w, r, j)
	case errors.Is(err, ErrBusy):
		s.Shed(w, r, replies)
	case errors.Is(err, errKeyReused):
		replies.Error(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, ErrUnknownFingerprint):
		replies.Error(w, http.StatusNotFound, "%v", err)
	default:
		replies.Error(w, http.StatusBadRequest, "%v", err)
	}
}

// scheduleJob decodes, resolves and submits one job request; owned
// reports that the scheduled job took over the admission slot.
func (s *Server) scheduleJob(r *http.Request, kind string, req any, resolve func() (jobRun, error)) (j *job, owned bool, err error) {
	if err := decodeJSON(r, req); err != nil {
		return nil, false, err
	}
	run, err := resolve()
	if err != nil {
		return nil, false, err
	}
	// Re-marshalled after resolve filled in its defaults (optimize's
	// flow), so a replay's whitespace, field order and spelled-out
	// defaults do not count against it.
	canon, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	j, dup, err := s.jobs.submit(s.baseCtx, r.Context(), s.pool, kind, r.Header.Get("Idempotency-Key"), string(canon), run, s.jobsAdm.leave)
	return j, err == nil && !dup, err
}

func (s *Server) accept(w http.ResponseWriter, r *http.Request, j *job) {
	v := j.snapshot()
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		sp.Attr("job_id", v.ID)
	}
	replies.JSON(w, http.StatusAccepted, JobAccepted{ID: v.ID, Status: v.Status, Poll: "/v1/jobs/" + v.ID})
}

// handleOptimize schedules an optimization flow as an async job and
// returns its ID immediately.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	s.submitJob(w, r, "optimize", &req, func() (jobRun, error) {
		if req.Flow == "" {
			req.Flow = "orchestrate"
		}
		flow, err := opt.FlowByName(req.Flow)
		if err != nil {
			return nil, err
		}
		e, err := s.lookup(req.AIG)
		if err != nil {
			return nil, err
		}
		if err := checkable(e); err != nil {
			return nil, err
		}
		return func(ctx context.Context) (any, error) {
			return s.runOptimize(ctx, e, flow, req.Seed)
		}, nil
	})
}

// handleReport schedules a full ROD-style pair report: the pairwise
// metrics plus, per requested flow, both optimized gate counts and the
// Relative Optimizability Difference — the service equivalent of one
// harness.PairSample.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	s.submitJob(w, r, "report", &req, func() (jobRun, error) {
		metrics, err := resolveMetrics(req.Metrics)
		if err != nil {
			return nil, err
		}
		flows, err := resolveFlows(req.Flows)
		if err != nil {
			return nil, err
		}
		ea, eb, err := s.resolvePair(req.A, req.B)
		if err != nil {
			return nil, err
		}
		if err := checkable(ea, eb); err != nil {
			return nil, err
		}
		return func(ctx context.Context) (any, error) {
			return s.runReport(ctx, ea, eb, flows, metrics, req.Seed)
		}, nil
	})
}

// checkable refuses AIGs a flow job could not verify: checkedFlow's
// equivalence check simulates exhaustively, which covers at most
// tt.MaxVars inputs.
func checkable(es ...*storedAIG) error {
	for _, e := range es {
		if n := e.g.NumPIs(); n > tt.MaxVars {
			return fmt.Errorf("AIG %s has %d inputs; optimize and report verify every flow by exhaustive simulation, limited to %d inputs", e.fp, n, tt.MaxVars)
		}
	}
	return nil
}

// checkedFlow runs one flow with the same guarantees the harness gives
// a variant: panic isolation and a functional-equivalence check — a
// flow that changes the function is a failed job, never a silently
// wrong answer.
func checkedFlow(ctx context.Context, flow opt.Flow, g *aig.AIG, seed int64) (*aig.AIG, error) {
	og, err := harness.SafeFlow(ctx, flow, g, seed)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if idx, eqErr := aig.Equivalent(g, og); eqErr != nil || idx >= 0 {
		telemetry.Add("harness/equiv_failures", 1)
		if eqErr == nil {
			eqErr = fmt.Errorf("optimized AIG differs from input on output %d", idx)
		}
		trace.AddEvent(ctx, "equiv_quarantine", trace.A("flow", flow.Name), trace.A("output", idx))
		return nil, eqErr
	}
	return og, nil
}

// runOptimize executes one checked flow and interns the optimized
// structure into the store for immediate follow-up scoring.
func (s *Server) runOptimize(ctx context.Context, e *storedAIG, flow opt.Flow, seed int64) (any, error) {
	og, err := checkedFlow(ctx, flow, e.g, seed)
	if err != nil {
		return nil, err
	}
	og = og.Cleanup()
	oe, _ := s.store.put(ctx, og)
	var b strings.Builder
	if err := aiger.WriteASCII(&b, og); err != nil {
		return nil, err
	}
	return OptimizeResult{
		Fingerprint: e.fp,
		Flow:        flow.Name,
		Seed:        seed,
		GatesBefore: e.stats.Ands, GatesAfter: og.NumAnds(),
		LevelsBefore: e.stats.Levels, LevelsAfter: og.NumLevels(),
		OptimizedFingerprint: oe.fp,
		AIGER:                b.String(),
	}, nil
}

// runReport reuses the harness's pair-sample shape: RecipeA/RecipeB
// carry the fingerprints, Metrics the pairwise scores, ROD the per-flow
// Relative Optimizability Difference of Eq. 1.
func (s *Server) runReport(ctx context.Context, ea, eb *storedAIG, flows []opt.Flow, metrics []simil.Metric, seed int64) (any, error) {
	scores, err := s.pairScores(ctx, ea, eb, metrics)
	if err != nil {
		return nil, err
	}
	sample := harness.PairSample{
		Spec:    "service",
		RecipeA: ea.fp, RecipeB: eb.fp,
		Metrics: scores,
		ROD:     make(map[string]float64, len(flows)),
		GatesA:  ea.stats.Ands, GatesB: eb.stats.Ands,
	}
	for _, flow := range flows {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		oa, err := checkedFlow(ctx, flow, ea.g, seed)
		if err != nil {
			return nil, err
		}
		ob, err := checkedFlow(ctx, flow, eb.g, seed)
		if err != nil {
			return nil, err
		}
		sample.ROD[flow.Name] = simil.ROD(oa.NumAnds(), ob.NumAnds())
	}
	return sample, nil
}

func resolveFlows(names []string) ([]opt.Flow, error) {
	if len(names) == 0 {
		return opt.Flows(), nil
	}
	out := make([]opt.Flow, len(names))
	for i, n := range names {
		f, err := opt.FlowByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// replyJob serves a job view found by id: GET polls it, DELETE cancels
// it.
func (s *Server) replyJob(find func(id string) (JobView, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ok := find(r.PathValue("id"))
		if !ok {
			replies.Error(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		replies.JSON(w, http.StatusOK, v)
	}
}
