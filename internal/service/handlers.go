package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

type metricsRequest struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Metrics []string `json:"metrics,omitempty"`
}

type metricsResponse struct {
	A      string             `json:"a"`
	B      string             `json:"b"`
	Scores map[string]float64 `json:"scores"`
}

type batchRequest struct {
	AIGs    []string `json:"aigs"`
	Metrics []string `json:"metrics,omitempty"`
}

type batchResponse struct {
	AIGs []string `json:"aigs"`
	// Pairs holds one entry per unordered pair, indexed into AIGs.
	Pairs []batchPair `json:"pairs"`
	// Pruned reports that the batch exceeded maxBatchExact and the
	// sketch index pre-filtered the pair loop; PrunedPairs counts the
	// pairs skipped without full evaluation.
	Pruned      bool `json:"pruned,omitempty"`
	PrunedPairs int  `json:"pruned_pairs,omitempty"`
}

// batchCapError is the structured over-cap refusal: the client learns
// the actual cap and its own request size, not just a bare 400.
type batchCapError struct {
	Error string `json:"error"`
	Cap   int    `json:"cap"`
	Size  int    `json:"size"`
}

type batchPair struct {
	I      int                `json:"i"`
	J      int                `json:"j"`
	Scores map[string]float64 `json:"scores"`
}

type optimizeRequest struct {
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

type reportRequest struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Flows   []string `json:"flows,omitempty"`
	Metrics []string `json:"metrics,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
}

type jobAccepted struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Poll   string    `json:"poll"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- plumbing ----------------------------------------------------------

// reply writes a JSON response. An encode/write failure means the
// client is gone; it is counted, not propagated.
func reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		telemetry.Add("service/write_errors", 1)
	}
}

func replyError(w http.ResponseWriter, code int, format string, args ...any) {
	telemetry.Add("service/http_errors", 1)
	reply(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// shed refuses a request from a saturated endpoint: 429 plus a
// Retry-After hint so well-behaved clients back off instead of
// hammering. The refusal is stamped onto the request's trace so a
// shed storm is attributable per request, not just as a counter.
func (s *Server) shed(w http.ResponseWriter, r *http.Request) {
	trace.AddEvent(r.Context(), "admission_shed")
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	replyError(w, http.StatusTooManyRequests, "saturated, retry later")
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

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxAIGERBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// routePatterns is the daemon's fixed route table, shared by Handler
// (mux registration) and newRedSet (per-endpoint RED metric names).
// Adding a route here is what creates its metric families — cardinality
// is bounded by this list, never by traffic.
var routePatterns = []string{
	"GET /healthz",
	"POST /v1/aigs",
	"GET /v1/aigs/{fp}",
	"POST /v1/metrics",
	"POST /v1/metrics/batch",
	"POST /v1/neighbors",
	"POST /v1/diverse-subset",
	"POST /v1/optimize",
	"POST /v1/report",
	"GET /v1/jobs/{id}",
	"DELETE /v1/jobs/{id}",
}

// Handler returns the daemon's HTTP API. Every endpoint except
// /healthz refuses with 503 once the server is draining. When a trace
// store is configured, the read-only trace debug endpoints are mounted
// alongside the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/aigs", s.guard("POST /v1/aigs", s.handleSubmitAIG))
	mux.HandleFunc("GET /v1/aigs/{fp}", s.guard("GET /v1/aigs/{fp}", s.handleGetAIG))
	mux.HandleFunc("POST /v1/metrics", s.guard("POST /v1/metrics", s.handleMetrics))
	mux.HandleFunc("POST /v1/metrics/batch", s.guard("POST /v1/metrics/batch", s.handleMetricsBatch))
	mux.HandleFunc("POST /v1/neighbors", s.guard("POST /v1/neighbors", s.handleNeighbors))
	mux.HandleFunc("POST /v1/diverse-subset", s.guard("POST /v1/diverse-subset", s.handleDiverse))
	mux.HandleFunc("POST /v1/optimize", s.guard("POST /v1/optimize", s.handleOptimize))
	mux.HandleFunc("POST /v1/report", s.guard("POST /v1/report", s.handleReport))
	mux.HandleFunc("GET /v1/jobs/{id}", s.guard("GET /v1/jobs/{id}", s.handleGetJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.guard("DELETE /v1/jobs/{id}", s.handleCancelJob))
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

// guard wraps a handler with the drain gate and request accounting: it
// extracts the caller's traceparent (or roots a fresh trace), opens the
// "service/request" span every downstream span hangs off, echoes the
// trace identity in response headers, and on completion feeds the RED
// metrics and the structured access log. pattern must be one of
// routePatterns.
func (s *Server) guard(pattern string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.red.endpoint(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		telemetry.Add("service/requests", 1)
		ctx := r.Context()
		if sc, ok := trace.Extract(r.Header); ok {
			ctx = trace.ContextWithRemote(ctx, sc)
		}
		ctx, sp := trace.Start(ctx, "service/request")
		sp.Attr("endpoint", ep.path).Attr("method", r.Method)
		if sc := sp.Context(); sc.Valid() {
			w.Header().Set(trace.TraceIDHeader, sc.TraceID.String())
			w.Header().Set("traceparent", trace.Traceparent(sc))
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		if s.draining.Load() {
			rec.Header().Set("Connection", "close")
			rec.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			replyError(rec, http.StatusServiceUnavailable, "draining")
		} else {
			h(rec, r.WithContext(ctx))
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
		s.red.record(ep, rec.status, d)
		s.logAccess(sp, r, ep, rec, d)
	}
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
	reply(w, http.StatusOK, map[string]any{
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
	g, err := aiger.Read(http.MaxBytesReader(w, r.Body, maxAIGERBody))
	if err != nil {
		replyError(w, http.StatusBadRequest, "parsing AIGER: %v", err)
		return
	}
	if err := g.Check(); err != nil {
		replyError(w, http.StatusBadRequest, "invalid AIG: %v", err)
		return
	}
	// Intern the PO-reachable cone only. The fingerprint deliberately
	// ignores dangling nodes, so two submissions differing only in dead
	// cones collide on one key; without Cleanup the stored stats and
	// profiles would depend on whichever structure arrived first, which
	// would break the hit-equals-fresh-computation invariant.
	ictx, ispan := trace.Start(r.Context(), "service/store_intern")
	e, known := s.store.put(ictx, g.Cleanup())
	ispan.Attr("fingerprint", e.fp).Attr("known", known)
	ispan.End()
	if s.onIntern != nil {
		// Cluster mode: hand the submission to the replication layer
		// (it fans out asynchronously; the response does not wait on
		// peers).
		s.onIntern(r.Context(), viewOf(e, known))
	}
	reply(w, http.StatusOK, viewOf(e, known))
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
		replyError(w, http.StatusNotFound, "unknown fingerprint %q", r.PathValue("fp"))
		return
	}
	reply(w, http.StatusOK, viewOf(e, true))
}

// resolvePair looks up both referenced AIGs.
func (s *Server) resolvePair(fpA, fpB string) (ea, eb *storedAIG, err error) {
	ea, ok := s.store.get(fpA)
	if !ok {
		return nil, nil, fmt.Errorf("%w %q (submit it via POST /v1/aigs first)", ErrUnknownFingerprint, fpA)
	}
	eb, ok = s.store.get(fpB)
	if !ok {
		return nil, nil, fmt.Errorf("%w %q (submit it via POST /v1/aigs first)", ErrUnknownFingerprint, fpB)
	}
	return ea, eb, nil
}

// handleMetrics serves pairwise similarity/dissimilarity scores for two
// previously submitted AIGs. The computation runs on the bounded worker
// pool; a saturated pool sheds with 429.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.metricsAdm.enter() {
		s.shed(w, r)
		return
	}
	defer s.metricsAdm.leave()

	var req metricsRequest
	if err := decodeJSON(r, &req); err != nil {
		replyError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	metrics, err := resolveMetrics(req.Metrics)
	if err != nil {
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
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
		scores, err = s.pairRouter(ctx, req.A, req.B, names)
	} else {
		var ea, eb *storedAIG
		ea, eb, err = s.resolvePair(req.A, req.B)
		if err != nil {
			replyError(w, http.StatusNotFound, "%v", err)
			return
		}
		scores, err = s.scorePairPooled(ctx, ea, eb, metrics)
	}
	if err != nil {
		if errors.Is(err, ErrUnknownFingerprint) {
			replyError(w, http.StatusNotFound, "%v", err)
			return
		}
		if errors.Is(err, ErrBusy) || ctx.Err() != nil {
			s.replyPoolError(w, r, err)
			return
		}
		replyError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	reply(w, http.StatusOK, metricsResponse{A: req.A, B: req.B, Scores: scores})
}

// handleMetricsBatch scores every unordered pair among n submitted
// AIGs. This is the batch path the store and profile cache exist for:
// per-graph preprocessing runs once per graph (n profiles), not once
// per pair (n·(n−1) would-be profiles).
func (s *Server) handleMetricsBatch(w http.ResponseWriter, r *http.Request) {
	if !s.metricsAdm.enter() {
		s.shed(w, r)
		return
	}
	defer s.metricsAdm.leave()

	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		replyError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.AIGs) < 2 {
		replyError(w, http.StatusBadRequest, "batch needs at least 2 AIGs, got %d", len(req.AIGs))
		return
	}
	if len(req.AIGs) > maxBatchAIGs {
		telemetry.Add("service/batch_shed", 1)
		telemetry.Add("service/http_errors", 1)
		reply(w, http.StatusBadRequest, batchCapError{
			Error: fmt.Sprintf("batch of %d AIGs exceeds the limit of %d; split it into smaller batches", len(req.AIGs), maxBatchAIGs),
			Cap:   maxBatchAIGs,
			Size:  len(req.AIGs),
		})
		return
	}
	metrics, err := resolveMetrics(req.Metrics)
	if err != nil {
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entries := make([]*storedAIG, len(req.AIGs))
	for i, fp := range req.AIGs {
		e, ok := s.store.get(fp)
		if !ok {
			replyError(w, http.StatusNotFound, "unknown fingerprint %q (submit it via POST /v1/aigs first)", fp)
			return
		}
		entries[i] = e
	}
	resp := batchResponse{AIGs: req.AIGs}
	// Oversized batches go two-stage: an ephemeral sketch index over
	// just the batch population picks the candidate pairs, and the
	// O(n²) full-evaluation loop shrinks to the pairs some LSH band
	// considers similar.
	prune := len(req.AIGs) > maxBatchExact
	ctx := r.Context()
	var serr error
	_, qspan := trace.Start(ctx, "service/queue_wait")
	err = s.pool.run(ctx, func() {
		qspan.End()
		// Coalesce the batch's per-graph work up front: one profile per
		// graph covering the union of artifact needs.
		needs := simil.Needs(metrics)
		if prune {
			needs |= simil.NeedSketch
		}
		sigs := make([]*sketch.Signature, len(entries))
		for i, e := range entries {
			if serr = ctx.Err(); serr != nil { // client gone: free the worker
				return
			}
			p, perr := s.profileFor(ctx, e, needs)
			if perr != nil {
				serr = perr
				return
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
				if serr = ctx.Err(); serr != nil {
					return
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
				scores, perr := s.pairScores(ctx, entries[i], entries[j], metrics)
				if perr != nil {
					serr = perr
					return
				}
				resp.Pairs = append(resp.Pairs, batchPair{I: i, J: j, Scores: scores})
			}
		}
		if prune {
			resp.Pruned = true
			telemetry.Add("sketch/candidates", int64(len(resp.Pairs)))
			telemetry.Add("sketch/exact_evals", int64(len(resp.Pairs)))
			telemetry.Add("sketch/pruned", int64(resp.PrunedPairs))
		}
	})
	if err != nil {
		qspan.Fail(err).End()
		s.replyPoolError(w, r, err)
		return
	}
	if serr != nil {
		if ctx.Err() != nil {
			s.replyPoolError(w, r, serr)
			return
		}
		replyError(w, http.StatusInternalServerError, "%v", serr)
		return
	}
	reply(w, http.StatusOK, resp)
}

// replyPoolError maps pool failures: saturation sheds with 429, a
// client disconnect (context cancellation) is counted and logged with
// 499-style semantics (the client is gone; any status is unread). The
// 503 fallback (pool shut down mid-request — the drain/stop path)
// carries the same scaled Retry-After as the 429s so clients refused
// during a drain back off by the backlog estimate, not blindly.
func (s *Server) replyPoolError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, ErrBusy) {
		s.shed(w, r)
		return
	}
	if r.Context().Err() != nil {
		telemetry.Add("service/client_disconnects", 1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	replyError(w, http.StatusServiceUnavailable, "%v", err)
}

// handleOptimize schedules an optimization flow as an async job and
// returns its ID immediately.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if !s.jobsAdm.enter() {
		s.shed(w, r)
		return
	}
	var req optimizeRequest
	if err := decodeJSON(r, &req); err != nil {
		s.jobsAdm.leave()
		replyError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Flow == "" {
		req.Flow = "orchestrate"
	}
	flow, err := opt.FlowByName(req.Flow)
	if err != nil {
		s.jobsAdm.leave()
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, ok := s.store.get(req.AIG)
	if !ok {
		s.jobsAdm.leave()
		replyError(w, http.StatusNotFound, "unknown fingerprint %q (submit it via POST /v1/aigs first)", req.AIG)
		return
	}
	// The admission slot is released by the job engine when the pool
	// task exits — on every path, including cancellation while still
	// queued (where the run closure never executes). A deduplicated
	// retry never schedules anything, so this request's slot is handed
	// straight back: the original submission's slot already covers the
	// job.
	j, dup, err := s.jobs.submit(s.baseCtx, r.Context(), s.pool, "optimize", idempotencyKey(r), func(ctx context.Context) (any, error) {
		return s.runOptimize(ctx, e, flow, req.Seed)
	}, s.jobsAdm.leave)
	if err != nil {
		s.jobsAdm.leave()
		s.shed(w, r)
		return
	}
	if dup {
		s.jobsAdm.leave()
	}
	s.accept(w, r, j)
}

// idempotencyKey extracts the client's Idempotency-Key header for job
// submission dedup. Empty means "not idempotent": every submit is a
// new job.
func idempotencyKey(r *http.Request) string {
	return r.Header.Get("Idempotency-Key")
}

func (s *Server) accept(w http.ResponseWriter, r *http.Request, j *job) {
	v := j.snapshot()
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		sp.Attr("job_id", v.ID)
	}
	reply(w, http.StatusAccepted, jobAccepted{ID: v.ID, Status: v.Status, Poll: "/v1/jobs/" + v.ID})
}

// runOptimize executes one flow with the same guarantees the harness
// gives a variant: panic isolation (in the job engine) and a
// functional-equivalence check — a flow that changes the function is a
// failed job, never a silently wrong answer. The optimized structure is
// interned into the store for immediate follow-up scoring.
func (s *Server) runOptimize(ctx context.Context, e *storedAIG, flow opt.Flow, seed int64) (any, error) {
	og, err := harness.SafeFlow(ctx, flow, e.g, seed)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if idx, eqErr := aig.Equivalent(e.g, og); eqErr != nil || idx >= 0 {
		telemetry.Add("harness/equiv_failures", 1)
		if eqErr == nil {
			eqErr = fmt.Errorf("optimized AIG differs from input on output %d", idx)
		}
		trace.AddEvent(ctx, "equiv_quarantine", trace.A("flow", flow.Name), trace.A("output", idx))
		return nil, eqErr
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

// handleReport schedules a full ROD-style pair report: the pairwise
// metrics plus, per requested flow, both optimized gate counts and the
// Relative Optimizability Difference — the service equivalent of one
// harness.PairSample.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if !s.jobsAdm.enter() {
		s.shed(w, r)
		return
	}
	var req reportRequest
	if err := decodeJSON(r, &req); err != nil {
		s.jobsAdm.leave()
		replyError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	metrics, err := resolveMetrics(req.Metrics)
	if err != nil {
		s.jobsAdm.leave()
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	flows, err := resolveFlows(req.Flows)
	if err != nil {
		s.jobsAdm.leave()
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ea, eb, err := s.resolvePair(req.A, req.B)
	if err != nil {
		s.jobsAdm.leave()
		replyError(w, http.StatusNotFound, "%v", err)
		return
	}
	j, dup, err := s.jobs.submit(s.baseCtx, r.Context(), s.pool, "report", idempotencyKey(r), func(ctx context.Context) (any, error) {
		return s.runReport(ctx, ea, eb, flows, metrics, req.Seed)
	}, s.jobsAdm.leave)
	if err != nil {
		s.jobsAdm.leave()
		s.shed(w, r)
		return
	}
	if dup {
		s.jobsAdm.leave()
	}
	s.accept(w, r, j)
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
		oa, err := harness.SafeFlow(ctx, flow, ea.g, seed)
		if err != nil {
			return nil, err
		}
		ob, err := harness.SafeFlow(ctx, flow, eb.g, seed)
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
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

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		replyError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	reply(w, http.StatusOK, v)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		replyError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	reply(w, http.StatusOK, v)
}
