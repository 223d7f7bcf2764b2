package service

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/harness"
	"repro/internal/simil"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// profileSeed derives the per-graph profile seed deterministically from
// the structural fingerprint. This is what makes cache hits bit-
// identical to fresh computation: two identical structures always get
// the same Lanczos starting vector, so the same spectrum, so the same
// ASD — no matter which request computed them first.
func profileSeed(fp string) int64 {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// profileFor returns e's profile carrying at least the needed artifact
// families, building or extending it under the per-graph mutex. The
// mutex is the coalescing point of the batch path: however many
// concurrent requests need this graph, its NetSimile features, WL
// labels, spectrum, and single-step reductions are computed once.
func (s *Server) profileFor(ctx context.Context, e *storedAIG, needs simil.Artifacts) (*simil.Profile, error) {
	e.profMu.Lock()
	defer e.profMu.Unlock()
	opts := simil.ProfileOptions{Seed: profileSeed(e.fp)}
	if e.profile == nil {
		p, err := harness.SafeProfile(ctx, e.g, opts, needs)
		if err != nil {
			return nil, err
		}
		telemetry.Add("service/profile_builds", 1)
		e.profile = p
		return p, nil
	}
	if missing := needs &^ e.profile.Has(); missing != 0 {
		if err := safeExtend(ctx, e.profile, opts, missing); err != nil {
			return nil, err
		}
		telemetry.Add("service/profile_extends", 1)
	}
	return e.profile, nil
}

// safeExtend extends a cached profile with panic isolation, under the
// same "profile/total" span a fresh build runs under.
func safeExtend(ctx context.Context, p *simil.Profile, opts simil.ProfileOptions, needs simil.Artifacts) (err error) {
	_, sp := trace.Start(ctx, "profile/total")
	defer sp.End()
	defer harness.Recover(&err, "profile extend")
	p.Extend(opts, needs)
	return nil
}

// cacheKey builds the canonical result-cache key. Every metric in the
// registry is symmetric, so the fingerprints are ordered — (A,B) and
// (B,A) share one cache line.
func cacheKey(metric, fpA, fpB string) (string, bool) {
	swapped := fpA > fpB
	if swapped {
		fpA, fpB = fpB, fpA
	}
	return metric + "|" + fpA + "|" + fpB, swapped
}

// resolveMetrics maps requested metric names (empty = all ten) onto the
// registry.
func resolveMetrics(names []string) ([]simil.Metric, error) {
	if len(names) == 0 {
		return simil.Metrics(), nil
	}
	out := make([]simil.Metric, 0, len(names))
	for _, n := range names {
		m, ok := simil.MetricByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown metric %q", n)
		}
		out = append(out, m)
	}
	return out, nil
}

// pairScores computes the requested metrics for one AIG pair: profiles
// once per graph (coalesced), then per metric a cache lookup, a
// singleflighted compute on miss, and a cache fill. The invariant the
// cache rests on: a hit is bit-identical to what a fresh computation
// would produce (deterministic profiles via profileSeed, symmetric
// metrics in canonical operand order).
//
// The whole pair is one "service/pair_scores" span; each metric's
// cache outcome (hit, miss, shard, singleflight role) is an event on
// it, so a slow request decomposes into exactly which lookups missed
// and which flights it waited behind.
func (s *Server) pairScores(ctx context.Context, ea, eb *storedAIG, metrics []simil.Metric) (_ map[string]float64, err error) {
	sctx, sp := trace.Start(ctx, "service/pair_scores")
	sp.Attr("a", ea.fp).Attr("b", eb.fp)
	defer sp.End()
	defer func() { sp.Fail(err) }()
	needs := simil.Needs(metrics)
	pa, err := s.profileFor(sctx, ea, needs)
	if err != nil {
		return nil, err
	}
	pb, err := s.profileFor(sctx, eb, needs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(metrics))
	for _, m := range metrics {
		key, swapped := cacheKey(m.Name, ea.fp, eb.fp)
		if v, shard, ok := s.cache.get(sctx, key); ok {
			sp.Event("cache_lookup", trace.A("metric", m.Name), trace.A("shard", shard), trace.A("outcome", "hit"))
			out[m.Name] = v
			continue
		}
		p1, p2 := pa, pb
		if swapped {
			p1, p2 = pb, pa
		}
		led := false
		v, cerr, shared := s.flights.do(sctx, key, func() (val float64, err error) {
			led = true
			// Re-check under the flight: a caller that missed the cache
			// while another flight was mid-fill must not recompute.
			if v, _, ok := s.cache.get(sctx, key); ok {
				return v, nil
			}
			defer harness.Recover(&err, "metric "+m.Name)
			if s.testComputeDelay != nil {
				s.testComputeDelay()
			}
			val = harness.ComputeMetric(sctx, m, p1, p2)
			telemetry.Add("service/metric_computes", 1)
			s.cache.put(key, val)
			return val, nil
		})
		role := "leader"
		if shared || !led {
			role = "follower"
		}
		shard := s.cache.shardIndex(key)
		sp.Event("cache_lookup", trace.A("metric", m.Name), trace.A("shard", shard), trace.A("outcome", "miss"), trace.A("role", role))
		if cerr != nil {
			return nil, cerr
		}
		out[m.Name] = v
	}
	return out, nil
}
