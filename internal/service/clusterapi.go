package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/aiger"
	"repro/internal/simil"
	"repro/internal/telemetry/trace"
)

// This file is the surface internal/cluster composes a multi-node
// daemon from. The contract every method leans on: scoring is a pure
// function of (fingerprint pair, metric) — profiles are seeded from
// the structural fingerprint (see profileSeed), so any node computes
// bit-identical scores for the same pair. That is what makes peer
// cache fill and replica failover sound: a value computed anywhere can
// be installed in any node's cache without violating the
// hit-equals-fresh-computation invariant.

// ErrUnknownFingerprint is the sentinel under every "fingerprint not
// stored" failure on the scoring path. Handlers map it to 404; the
// cluster router returns it only after the whole cluster (not just the
// local store) came up empty.
var ErrUnknownFingerprint = errors.New("unknown fingerprint")

// PairRouter resolves one pair-scores request cluster-wide: consult
// the local cache, ask the owning peers, or fall back to computing
// locally. metrics is the resolved canonical metric-name list (never
// empty). An ErrBusy return sheds the request with 429 + Retry-After;
// ErrUnknownFingerprint (wrapped) answers 404.
type PairRouter func(ctx context.Context, fpA, fpB string, metrics []string) (map[string]float64, error)

// InternObserver observes each AIG submitted through the external API
// (POST /v1/aigs) after interning; the cluster layer uses it to
// replicate the structure to its ring owners. It is not invoked for
// cluster-internal interning (peer fill payloads, replication
// receives) — that asymmetry is what prevents replication storms.
type InternObserver func(ctx context.Context, v AIGView)

// SetClusterHooks installs the cluster routing layer. It must be
// called before the Server's Handler starts serving traffic; nil
// restores single-node behavior. (Both hooks are plain fields: the
// happens-before edge is the caller starting its HTTP server after
// this call.)
func (s *Server) SetClusterHooks(router PairRouter, onIntern InternObserver) {
	s.pairRouter = router
	s.onIntern = onIntern
}

// InternAIGER parses, validates, and interns an AIGER payload exactly
// like POST /v1/aigs does — including the Cleanup canonicalization
// that keeps dead cones out of the fingerprint — but without invoking
// the intern observer. It is the receive side of cluster replication
// and inline fill payloads; interning is content-addressed, so
// replaying it is idempotent.
func (s *Server) InternAIGER(ctx context.Context, payload []byte) (AIGView, error) {
	g, err := aiger.Read(bytes.NewReader(payload))
	if err != nil {
		return AIGView{}, fmt.Errorf("parsing AIGER: %w", err)
	}
	if err := g.Check(); err != nil {
		return AIGView{}, fmt.Errorf("invalid AIG: %w", err)
	}
	e, known := s.store.put(ctx, g.Cleanup())
	return viewOf(e, known), nil
}

// AIGERFor returns the canonical ASCII AIGER encoding of a stored
// fingerprint — the replication and fill-payload wire format. Encoding
// the stored (cleaned) graph rather than echoing the submitted bytes
// guarantees every replica interns the identical structure under the
// identical fingerprint.
func (s *Server) AIGERFor(fp string) ([]byte, error) {
	e, ok := s.store.get(fp)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownFingerprint, fp)
	}
	var b bytes.Buffer
	if err := aiger.WriteASCII(&b, e.g); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// HasAIG reports whether fp is in the local store.
func (s *Server) HasAIG(fp string) bool {
	_, ok := s.store.get(fp)
	return ok
}

// ScorePairLocal computes the named metrics for a stored pair on this
// node's worker pool, through its cache and singleflight — the exact
// single-node scoring path. ErrBusy means the pool queue is full.
func (s *Server) ScorePairLocal(ctx context.Context, fpA, fpB string, metricNames []string) (map[string]float64, error) {
	ea, eb, err := s.resolvePair(fpA, fpB)
	if err != nil {
		return nil, err
	}
	metrics, err := resolveMetrics(metricNames)
	if err != nil {
		return nil, err
	}
	return s.scorePairPooled(ctx, ea, eb, metrics)
}

// scorePairPooled runs pairScores on the bounded pool with the
// queue-wait span, shared by handleMetrics and ScorePairLocal.
func (s *Server) scorePairPooled(ctx context.Context, ea, eb *storedAIG, metrics []simil.Metric) (map[string]float64, error) {
	var scores map[string]float64
	var serr error
	_, qspan := trace.Start(ctx, "service/queue_wait")
	err := s.pool.run(ctx, func() {
		qspan.End()
		scores, serr = s.pairScores(ctx, ea, eb, metrics)
	})
	if err != nil {
		qspan.Fail(err).End()
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	return scores, nil
}

// PairFromCache returns the pair's scores if every requested metric is
// already in the local result cache; ok is false on any miss (the
// caller then decides between peer fill and local compute). ctx only
// attributes fault-injected misses to the requesting trace.
func (s *Server) PairFromCache(ctx context.Context, fpA, fpB string, metricNames []string) (map[string]float64, bool) {
	out := make(map[string]float64, len(metricNames))
	for _, name := range metricNames {
		key, _ := cacheKey(name, fpA, fpB)
		v, _, ok := s.cache.get(ctx, key)
		if !ok {
			return nil, false
		}
		out[name] = v
	}
	return out, true
}

// FillPairCache installs peer-obtained scores into the local result
// cache. Sound because scores are a pure function of (pair, metric):
// a peer-computed value is bit-identical to what this node would have
// computed, so a later local hit still equals fresh computation.
func (s *Server) FillPairCache(fpA, fpB string, scores map[string]float64) {
	for name, v := range scores {
		key, _ := cacheKey(name, fpA, fpB)
		s.cache.put(key, v)
	}
}

// StoredFingerprints returns every fingerprint in the local store in
// sorted order — the enumeration base a membership-change handoff
// plans structure transfers from.
func (s *Server) StoredFingerprints() []string {
	snap := s.store.snapshot()
	out := make([]string, len(snap))
	for i, e := range snap {
		out[i] = e.fp
	}
	return out
}

// PairResult is one pair's cached scores, re-assembled from the result
// cache's per-metric lines — the unit a handoff streams via
// ClusterPutResult.
type PairResult struct {
	A, B   string
	Scores map[string]float64
}

// CachedPairResults groups the local result cache back into per-pair
// score maps, sorted by (A, B) for deterministic handoff plans. Like
// entries(), this is a point-in-time view; a result missed by a
// concurrent put is recomputable anywhere, so handoff completeness is
// best-effort by design — correctness rests on purity, not on the copy
// being exhaustive.
func (s *Server) CachedPairResults() []PairResult {
	byPair := make(map[string]*PairResult)
	for _, it := range s.cache.entries() {
		// Keys are "metric|fpA|fpB" with sorted fingerprints; metric
		// names never contain '|'.
		parts := strings.SplitN(it.key, "|", 3)
		if len(parts) != 3 {
			continue
		}
		pk := parts[1] + "|" + parts[2]
		pr, ok := byPair[pk]
		if !ok {
			pr = &PairResult{A: parts[1], B: parts[2], Scores: make(map[string]float64)}
			byPair[pk] = pr
		}
		pr.Scores[parts[0]] = it.val
	}
	keys := make([]string, 0, len(byPair))
	for k := range byPair {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]PairResult, len(keys))
	for i, k := range keys {
		out[i] = *byPair[k]
	}
	return out
}

// RetryAfterSeconds exposes the load-scaled Retry-After hint (1s idle,
// up to 30s under backlog) so the cluster layer's refusals carry the
// same pacing signal as the service's own 429s.
func (s *Server) RetryAfterSeconds() int {
	return s.retryAfterSeconds()
}

// MetricNames canonicalizes a request's metric list the way the
// scoring path will resolve it (empty = the full registry), so routing
// layers key their deduplication on exactly what will be computed.
func MetricNames(names []string) ([]string, error) {
	metrics, err := resolveMetrics(names)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(metrics))
	for i, m := range metrics {
		out[i] = m.Name
	}
	return out, nil
}
