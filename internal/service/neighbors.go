package service

import (
	"context"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/simil"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// PointSketchRebuild is the fault-injection point on sketch index
// rebuild. A fault here fails the rebuild before the index is touched:
// the old index stays intact and keeps serving, which is the
// degradation the chaos suite pins.
const PointSketchRebuild = "sketch/rebuild"

// maxNeighborsK bounds one k-NN request; like the batch cap this keeps
// a single JSON body from pinning a worker arbitrarily long.
const maxNeighborsK = 256

// maxDiverseK bounds one diverse-subset selection. The response carries
// a k×k score matrix, so k is quadratic in response size.
const maxDiverseK = 64

// prepareEntry is the store's prepare hook: it builds a new entry's
// base profile — the sketch family and its parents — and publishes the
// retrieval signature the index mirrors. It runs outside the store
// lock on a still-private entry, so no synchronization is needed. On
// failure the entry still serves (profiles rebuild lazily in
// profileFor); it just never enters the sketch index.
func (s *Server) prepareEntry(ctx context.Context, e *storedAIG) {
	p, err := harness.SafeProfile(ctx, e.g, simil.ProfileOptions{Seed: profileSeed(e.fp)}, simil.NeedSketch)
	if err != nil {
		telemetry.Add("sketch/prepare_errors", 1)
		return
	}
	telemetry.Add("service/profile_builds", 1)
	e.profile = p
	e.sig = p.Sketch()
}

// RebuildSketchIndex reconstructs the sketch index from current store
// membership — the recovery path for a suspected index/store
// divergence. It returns the number of indexed fingerprints. Under an
// injected fault the rebuild fails without touching the live index.
func (s *Server) RebuildSketchIndex() (int, error) {
	if err := faultinject.Hit(PointSketchRebuild); err != nil {
		telemetry.Add("sketch/rebuild_errors", 1)
		return 0, err
	}
	n := s.store.rebuildIndex()
	telemetry.Add("sketch/rebuilds", 1)
	return n, nil
}

// --- wire types --------------------------------------------------------

type neighborsRequest struct {
	FP     string `json:"fp"`
	K      int    `json:"k,omitempty"`
	Metric string `json:"metric,omitempty"`
	// Exact forces the full corpus scan — the ground-truth path for
	// small corpora and recall measurement.
	Exact bool `json:"exact,omitempty"`
	// Budget caps how many candidates get full metric evaluation
	// (default max(64, 8k)). The recall-vs-cost knob.
	Budget int `json:"budget,omitempty"`
}

// NeighborEntry is one ranked neighbor.
type NeighborEntry struct {
	Fingerprint string  `json:"fingerprint"`
	Score       float64 `json:"score"`
}

// NeighborsResponse reports a k-NN query: the ranked neighbors plus
// the evaluation accounting that makes the recall-vs-cost contract
// observable per request.
type NeighborsResponse struct {
	FP     string `json:"fp"`
	Metric string `json:"metric"`
	K      int    `json:"k"`
	// Exact reports which path answered: a full corpus scan or the
	// sketch-pruned two-stage query.
	Exact bool `json:"exact"`
	// Corpus is the store population the query ran against (excluding
	// the query itself); Evals is how many pairs got full metric
	// evaluation. Their ratio is the realized pruning factor.
	Corpus    int             `json:"corpus"`
	Evals     int             `json:"evals"`
	Neighbors []NeighborEntry `json:"neighbors"`
}

type diverseRequest struct {
	// AIGs is the explicit candidate pool; empty means the whole store.
	AIGs   []string `json:"aigs,omitempty"`
	K      int      `json:"k"`
	Metric string   `json:"metric,omitempty"`
}

// DiverseResponse reports a greedy max-min diversity selection: the
// chosen fingerprints in selection order plus their pairwise score
// matrix (Matrix[i][j] scores Chosen[i] against Chosen[j]).
type DiverseResponse struct {
	Metric string      `json:"metric"`
	K      int         `json:"k"`
	Pool   int         `json:"pool"`
	Chosen []string    `json:"chosen"`
	Matrix [][]float64 `json:"matrix"`
}

// --- ranking helpers ---------------------------------------------------

// resolveOneMetric picks the single ranking metric for a retrieval
// request (default WLKernel, the metric the MinHash family directly
// estimates).
func resolveOneMetric(name string) (simil.Metric, error) {
	if name == "" {
		name = "WLKernel"
	}
	m, ok := simil.MetricByName(name)
	if !ok {
		return simil.Metric{}, fmt.Errorf("unknown metric %q", name)
	}
	return m, nil
}

// sketchRanker returns the candidate-ranking distance for a metric.
// NetSimile-only metrics rank by the projection estimate — their
// matched estimator. Everything else, including WL-family metrics,
// ranks by the combined distance: the 1k-corpus recall study
// (TestSketchRecallContract) showed the feature half rescues
// stereotyped structures that score high under WLKernel while sitting
// far apart in label-multiset Jaccard, lifting recall@10 above
// WL-only ranking.
func sketchRanker(qs *sketch.Signature, m simil.Metric) func(*sketch.Signature) float64 {
	wl := m.Needs&simil.NeedWL != 0
	ns := m.Needs&simil.NeedNetSimile != 0
	if ns && !wl {
		return qs.FeatDistance
	}
	return qs.Distance
}

// pruneFamilies maps a batch's metric set onto the sketch families
// that vouch for candidate pairs: WL bands for WL-family metrics,
// feature bands for NetSimile-family ones. Metrics whose artifacts
// have no sketch proxy (overlap, spectrum, opt scores) widen to both
// families — the conservative gate. Stats-only metrics add nothing;
// a batch of only those falls back to both families too.
func pruneFamilies(metrics []simil.Metric) sketch.Family {
	var fam sketch.Family
	for _, m := range metrics {
		if m.Needs&simil.NeedWL != 0 {
			fam |= sketch.FamilyWL
		}
		if m.Needs&simil.NeedNetSimile != 0 {
			fam |= sketch.FamilyFeat
		}
		if m.Needs&(simil.NeedOverlap|simil.NeedSpectrum|simil.NeedOptScores) != 0 {
			fam = sketch.FamilyAll
		}
	}
	if fam == 0 {
		fam = sketch.FamilyAll
	}
	return fam
}

// dissim maps a metric score onto a dissimilarity so max-min selection
// works uniformly: higher-is-similar metrics are negated.
func dissim(m simil.Metric, score float64) float64 {
	if m.HigherIsSimilar {
		return -score
	}
	return score
}

// --- endpoints ---------------------------------------------------------

// handleNeighbors serves k-NN by a chosen metric: a sketch-pruned
// candidate set gets full metric evaluation (through the shared result
// cache and singleflight, so hits stay bit-identical to fresh
// computation), or a full corpus scan when exact is requested or the
// corpus is small enough that pruning cannot pay for itself.
func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if !s.metricsAdm.enter() {
		s.shed(w, r)
		return
	}
	defer s.metricsAdm.leave()

	var req neighborsRequest
	if err := decodeJSON(r, &req); err != nil {
		replyError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.FP == "" {
		replyError(w, http.StatusBadRequest, "missing query fingerprint \"fp\"")
		return
	}
	if req.K < 0 || req.Budget < 0 {
		replyError(w, http.StatusBadRequest, "k and budget must be non-negative")
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k > maxNeighborsK {
		replyError(w, http.StatusBadRequest, "k=%d exceeds the limit of %d", k, maxNeighborsK)
		return
	}
	metric, err := resolveOneMetric(req.Metric)
	if err != nil {
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, ok := s.store.get(req.FP)
	if !ok {
		replyError(w, http.StatusNotFound, "unknown fingerprint %q (submit it via POST /v1/aigs first)", req.FP)
		return
	}
	budget := req.Budget
	if budget == 0 {
		budget = 8 * k
		if budget < 64 {
			budget = 64
		}
	}

	ctx := r.Context()
	resp := NeighborsResponse{FP: req.FP, Metric: metric.Name, K: k}
	var serr error
	_, qspan := trace.Start(ctx, "service/queue_wait")
	err = s.pool.run(ctx, func() {
		qspan.End()
		sctx, span := trace.Start(ctx, "service/sketch_query")
		defer span.End()

		// Stage 1: the candidate set. Exact requests and corpora the
		// budget already covers take the ground-truth scan.
		var cands []*storedAIG
		corpus := s.store.len() - 1
		if req.Exact || corpus <= budget {
			resp.Exact = true
			for _, ce := range s.store.snapshot() {
				if ce.fp != e.fp {
					cands = append(cands, ce)
				}
			}
		} else {
			qp, perr := s.profileFor(sctx, e, simil.NeedSketch)
			if perr != nil {
				serr = perr
				return
			}
			qs := qp.Sketch()
			ranked, bandHits := s.store.index.Query(e.fp, qs, sketchRanker(qs, metric), budget)
			telemetry.Add("sketch/candidates", int64(len(ranked)))
			if pruned := corpus - len(ranked); pruned > 0 {
				telemetry.Add("sketch/pruned", int64(pruned))
			}
			span.Attr("band_hits", bandHits).Attr("candidates", len(ranked))
			for _, c := range ranked {
				if ce, ok := s.store.get(c.FP); ok {
					cands = append(cands, ce)
				}
			}
		}
		resp.Corpus = corpus

		// Stage 2: full metric evaluation of the survivors, through the
		// shared pair-scoring path (cache + singleflight).
		entries := make([]NeighborEntry, 0, len(cands))
		for _, ce := range cands {
			if serr = sctx.Err(); serr != nil {
				return
			}
			scores, perr := s.pairScores(sctx, e, ce, []simil.Metric{metric})
			if perr != nil {
				serr = perr
				return
			}
			entries = append(entries, NeighborEntry{Fingerprint: ce.fp, Score: scores[metric.Name]})
		}
		telemetry.Add("sketch/exact_evals", int64(len(entries)))
		resp.Evals = len(entries)
		sort.Slice(entries, func(i, j int) bool {
			di, dj := dissim(metric, entries[i].Score), dissim(metric, entries[j].Score)
			if di != dj {
				return di < dj
			}
			return entries[i].Fingerprint < entries[j].Fingerprint
		})
		if len(entries) > k {
			entries = entries[:k]
		}
		resp.Neighbors = entries
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

// handleDiverse serves greedy max-min diversity selection — the
// "choose the k structurally most diverse variants" policy as an
// endpoint. Selection is the classic 2-approximation of max-min
// dispersion: seed with the pool element farthest from the first
// sorted element, then repeatedly add the element maximizing its
// minimum dissimilarity to everything chosen. Every step is
// deterministic (sorted pool, fingerprint tie-breaks, fingerprint-
// seeded profiles), so repeated runs over the same corpus return
// byte-identical responses.
func (s *Server) handleDiverse(w http.ResponseWriter, r *http.Request) {
	if !s.metricsAdm.enter() {
		s.shed(w, r)
		return
	}
	defer s.metricsAdm.leave()

	var req diverseRequest
	if err := decodeJSON(r, &req); err != nil {
		replyError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.K <= 0 {
		replyError(w, http.StatusBadRequest, "k must be positive, got %d", req.K)
		return
	}
	if req.K > maxDiverseK {
		replyError(w, http.StatusBadRequest, "k=%d exceeds the limit of %d", req.K, maxDiverseK)
		return
	}
	metric, err := resolveOneMetric(req.Metric)
	if err != nil {
		replyError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The candidate pool: explicit fingerprints, or the whole store.
	// Either way sorted and deduplicated so selection is deterministic.
	var pool []*storedAIG
	if len(req.AIGs) > 0 {
		if len(req.AIGs) > maxBatchAIGs {
			replyError(w, http.StatusBadRequest, "pool of %d AIGs exceeds the limit of %d", len(req.AIGs), maxBatchAIGs)
			return
		}
		seen := make(map[string]bool, len(req.AIGs))
		for _, fp := range req.AIGs {
			if seen[fp] {
				continue
			}
			seen[fp] = true
			e, ok := s.store.get(fp)
			if !ok {
				replyError(w, http.StatusNotFound, "unknown fingerprint %q (submit it via POST /v1/aigs first)", fp)
				return
			}
			pool = append(pool, e)
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i].fp < pool[j].fp })
	} else {
		pool = s.store.snapshot()
	}
	if len(pool) < 2 {
		replyError(w, http.StatusBadRequest, "diverse selection needs a pool of at least 2 AIGs, have %d", len(pool))
		return
	}
	k := req.K
	if k > len(pool) {
		k = len(pool)
	}

	ctx := r.Context()
	resp := DiverseResponse{Metric: metric.Name, K: k, Pool: len(pool)}
	var serr error
	_, qspan := trace.Start(ctx, "service/queue_wait")
	err = s.pool.run(ctx, func() {
		qspan.End()
		sctx, span := trace.Start(ctx, "service/diverse_select")
		span.Attr("pool", len(pool)).Attr("k", k)
		defer span.End()
		score := func(a, b *storedAIG) (float64, error) {
			scores, perr := s.pairScores(sctx, a, b, []simil.Metric{metric})
			if perr != nil {
				return 0, perr
			}
			return scores[metric.Name], nil
		}

		// minDist[i] tracks pool[i]'s minimum dissimilarity to the
		// chosen set; each round adds the argmax — O(k·n) evaluations,
		// not O(n²).
		chosen := make([]int, 0, k)
		minDist := make([]float64, len(pool))
		inSet := make([]bool, len(pool))
		for i := 1; i < len(pool); i++ {
			v, perr := score(pool[0], pool[i])
			if perr != nil {
				serr = perr
				return
			}
			minDist[i] = dissim(metric, v)
		}
		// Seed: the element farthest from sorted-pool[0] (ties go to the
		// lowest index, i.e. the smallest fingerprint).
		seed := 1
		for i := 2; i < len(pool); i++ {
			if minDist[i] > minDist[seed] {
				seed = i
			}
		}
		chosen = append(chosen, seed)
		inSet[seed] = true
		for i := range pool {
			if !inSet[i] {
				v, perr := score(pool[seed], pool[i])
				if perr != nil {
					serr = perr
					return
				}
				minDist[i] = dissim(metric, v)
			}
		}
		for len(chosen) < k {
			if serr = sctx.Err(); serr != nil {
				return
			}
			best := -1
			for i := range pool {
				if inSet[i] {
					continue
				}
				if best < 0 || minDist[i] > minDist[best] {
					best = i
				}
			}
			chosen = append(chosen, best)
			inSet[best] = true
			for i := range pool {
				if !inSet[i] {
					v, perr := score(pool[best], pool[i])
					if perr != nil {
						serr = perr
						return
					}
					if d := dissim(metric, v); d < minDist[i] {
						minDist[i] = d
					}
				}
			}
		}

		resp.Chosen = make([]string, len(chosen))
		for i, idx := range chosen {
			resp.Chosen[i] = pool[idx].fp
		}
		resp.Matrix = make([][]float64, len(chosen))
		for i := range chosen {
			resp.Matrix[i] = make([]float64, len(chosen))
			for j := range chosen {
				if i == j {
					continue
				}
				v, perr := score(pool[chosen[i]], pool[chosen[j]])
				if perr != nil {
					serr = perr
					return
				}
				resp.Matrix[i][j] = v
			}
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
