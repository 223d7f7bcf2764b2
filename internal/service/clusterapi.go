package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"repro/internal/aiger"
	"repro/internal/simil"
)

// This file is the surface internal/cluster composes a multi-node
// daemon from. The contract every method leans on: scoring is a pure
// function of (fingerprint pair, metric) — profiles are seeded from
// the structural fingerprint (see simil.ProfileSeed), so any node computes
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

// InternAIGER interns an AIGER payload exactly like POST /v1/aigs does
// — the same intern path, Cleanup canonicalization and
// service/store_intern span — but without invoking the intern
// observer. It is the receive side of cluster replication and inline
// fill payloads; interning is content-addressed, so replaying it is
// idempotent.
func (s *Server) InternAIGER(ctx context.Context, payload []byte) (AIGView, error) {
	return s.intern(ctx, bytes.NewReader(payload))
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
	metrics, err := resolveMetrics(metricNames)
	if err != nil {
		return nil, err
	}
	return s.scorePair(ctx, fpA, fpB, metrics)
}

// scorePair runs pairScores for a stored pair on the bounded pool,
// shared by handleMetrics and ScorePairLocal.
func (s *Server) scorePair(ctx context.Context, fpA, fpB string, metrics []simil.Metric) (map[string]float64, error) {
	ea, eb, err := s.resolvePair(fpA, fpB)
	if err != nil {
		return nil, err
	}
	var scores map[string]float64
	if err := s.pooled(ctx, func() (err error) {
		scores, err = s.pairScores(ctx, ea, eb, metrics)
		return err
	}); err != nil {
		return nil, err
	}
	return scores, nil
}

// PairFromCache returns the pair's scores if every requested metric is
// already in the local result cache; ok is false on any miss (the
// caller then decides between peer fill and local compute), and for a
// malformed fingerprint or a name outside the registry. ctx only
// attributes fault-injected misses to the requesting trace.
func (s *Server) PairFromCache(ctx context.Context, fpA, fpB string, metricNames []string) (map[string]float64, bool) {
	key, _, ok := newPairKey(fpA, fpB)
	if !ok {
		return nil, false
	}
	var want uint16
	for _, name := range metricNames {
		i, ok := simil.MetricIndex(name)
		if !ok {
			return nil, false
		}
		want |= 1 << i
	}
	if got, _ := s.cache.get(ctx, key, want); got.have == want {
		return got.byName(), true
	}
	return nil, false
}

// FillPairCache installs peer-obtained scores into the local result
// cache. Sound because scores are a pure function of (pair, metric):
// a peer-computed value is bit-identical to what this node would have
// computed, so a later local hit still equals fresh computation. Names
// outside the registry, and a pair with a malformed fingerprint, are
// dropped.
func (s *Server) FillPairCache(fpA, fpB string, scores map[string]float64) {
	key, _, ok := newPairKey(fpA, fpB)
	if !ok {
		return
	}
	var fill scoreSet
	for name, v := range scores {
		if i, ok := simil.MetricIndex(name); ok {
			fill.set(i, v)
		}
	}
	s.cache.put(key, fill)
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

// PairResult is one pair's cached scores — the unit a handoff streams
// via ClusterPutResult.
type PairResult struct {
	A, B   string
	Scores map[string]float64
}

// CachedPairResults returns every pair in the local result cache with
// its scores, sorted by (A, B) for deterministic handoff plans. Like
// entries(), this is a point-in-time view; a result missed by a
// concurrent put is recomputable anywhere, so handoff completeness is
// best-effort by design — correctness rests on purity, not on the copy
// being exhaustive.
func (s *Server) CachedPairResults() []PairResult {
	pairs := s.cache.entries()
	slices.SortFunc(pairs, func(x, y pairEntry) int { return bytes.Compare(x.key[:], y.key[:]) })
	out := make([]PairResult, len(pairs))
	for i, e := range pairs {
		out[i] = PairResult{A: hex.EncodeToString(e.key[:16]), B: hex.EncodeToString(e.key[16:]), Scores: e.byName()}
	}
	return out
}
