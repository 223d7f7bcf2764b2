package service

import (
	"context"
	"encoding/hex"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/simil"
	"repro/internal/telemetry"
)

// PointCacheGet is the fault-injection point on result-cache lookup: a
// firing schedule forces a miss on every metric the pair lookup asked
// for, driving traffic down the singleflight + recompute path. Because
// a hit is bit-identical to fresh computation by construction, a forced
// miss must never change an answer — the chaos suite asserts exactly
// that.
const PointCacheGet = "service/cache_get"

// pairKey names an unordered AIG pair: both fingerprints decoded to 16
// bytes, the smaller first. Every registered metric is symmetric, so
// (A,B) and (B,A) share one entry.
type pairKey [32]byte

// newPairKey orders and decodes a pair; swapped reports that fpA sorts
// after fpB. ok is false unless both fingerprints are 32 lowercase hex
// digits, as aig.Fingerprint writes them; no other pair is cached.
func newPairKey(fpA, fpB string) (k pairKey, swapped, ok bool) {
	if swapped = fpA > fpB; swapped {
		fpA, fpB = fpB, fpA
	}
	ok = decodeFingerprint(k[:16], fpA) && decodeFingerprint(k[16:], fpB)
	return k, swapped, ok
}

func decodeFingerprint(dst []byte, fp string) bool {
	if len(fp) != 2*len(dst) || strings.ToLower(fp) != fp {
		return false
	}
	_, err := hex.Decode(dst, []byte(fp))
	return err == nil
}

// scoreSet is some of a pair's scores: values in registry order, and a
// bit in have for each one present.
type scoreSet struct {
	vals [simil.NumMetrics]float64
	have uint16
}

const _ uint16 = 1<<simil.NumMetrics - 1 // have has a bit per metric

// metricTable is the registry in scoreSet's order.
var metricTable = simil.Metrics()

func (ss *scoreSet) set(i int, v float64) { ss.vals[i], ss.have = v, ss.have|1<<i }

// byName returns the scores present, keyed by metric name.
func (ss *scoreSet) byName() map[string]float64 {
	out := make(map[string]float64, bits.OnesCount16(ss.have))
	for i, m := range metricTable {
		if ss.have&(1<<i) != 0 {
			out[m.Name] = ss.vals[i]
		}
	}
	return out
}

// resultCache is a sharded LRU of pairwise metric scores, one entry per
// unordered pair. Sharding keeps lock contention bounded under
// concurrent traffic. A shard keeps its pairs in a slab indexed by key;
// slot 0 is the sentinel of a circular recency list of int32 links,
// whose next is the most recently used pair and prev the least. Nothing
// in the cache holds a pointer, so the GC never scans it.
type resultCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	index map[pairKey]int32
	slab  []pairEntry
	cap   int
}

type pairEntry struct {
	key pairKey
	scoreSet
	prev, next int32
}

const cacheShards = 16

// newResultCache bounds the cache at about pairs entries.
func newResultCache(pairs int) *resultCache {
	c := &resultCache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{index: make(map[pairKey]int32), slab: make([]pairEntry, 1), cap: max(pairs/cacheShards, 1)}
	}
	return c
}

// shardOf spreads pairs by the last byte of each fingerprint, a hash
// byte, so their XOR is uniform too.
func shardOf(k pairKey) int { return int(k[15]^k[31]) % cacheShards }

// get looks a pair up for the metrics in want and refreshes it if
// cached. It returns the wanted scores present and the shard that
// served it, so per-request traces can attribute contention to a
// specific shard. Hits and misses count per metric. ctx carries the
// requesting trace for fault-injection attribution.
func (c *resultCache) get(ctx context.Context, k pairKey, want uint16) (got scoreSet, shard int) {
	shard = shardOf(k)
	if faultinject.HitCtx(ctx, PointCacheGet) == nil {
		s := &c.shards[shard]
		s.mu.Lock()
		if i, ok := s.index[k]; ok {
			s.unlink(i)
			s.pushFront(i)
			got = s.slab[i].scoreSet
			got.have &= want
		}
		s.mu.Unlock()
	}
	if n := bits.OnesCount16(got.have); n > 0 {
		telemetry.Add("service/cache_hits", int64(n))
	}
	if n := bits.OnesCount16(want &^ got.have); n > 0 {
		telemetry.Add("service/cache_misses", int64(n))
	}
	return got, shard
}

// put merges scores into the pair's entry and makes it the most
// recently used; a new pair in a full shard takes the slot of the
// least recently used one.
func (c *resultCache) put(k pairKey, scores scoreSet) {
	if scores.have == 0 {
		return
	}
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[k]
	switch {
	case ok:
		s.unlink(i)
	case len(s.slab) <= s.cap:
		i = int32(len(s.slab))
		s.slab = append(s.slab, pairEntry{key: k})
	default:
		i = s.slab[0].prev
		s.unlink(i)
		delete(s.index, s.slab[i].key)
		s.slab[i] = pairEntry{key: k}
		telemetry.Add("service/cache_evictions", 1)
	}
	s.index[k] = i
	s.pushFront(i)
	e := &s.slab[i]
	for m := range e.vals {
		if scores.have&(1<<m) != 0 {
			e.vals[m] = scores.vals[m]
		}
	}
	e.have |= scores.have
}

func (s *cacheShard) unlink(i int32) {
	e := &s.slab[i]
	s.slab[e.prev].next, s.slab[e.next].prev = e.next, e.prev
}

func (s *cacheShard) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = 0, s.slab[0].next
	s.slab[e.next].prev, s.slab[0].next = i, i
}

// entries returns a copy of every cached pair across all shards,
// without bumping recency — the enumeration base for membership-change
// key handoff. Each shard is copied under its lock; the cache may move
// between shards, which handoff tolerates because a result installed
// anywhere is bit-identical.
func (c *resultCache) entries() []pairEntry {
	var out []pairEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out = append(out, s.slab[1:]...)
		s.mu.Unlock()
	}
	return out
}

// --- singleflight ------------------------------------------------------

// FlightGroup deduplicates concurrent identical computations: the first
// caller for a key runs fn, every concurrent duplicate waits for that
// result instead of recomputing. (A minimal in-house singleflight — the
// module is dependency-free by design.) The service's metric flights
// and the cluster's peer fills both run on it.
type FlightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
	// shared and abandoned count the followers that received a leader's
	// result and those whose ctx ended first.
	shared, abandoned string
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlightGroup returns an empty group whose followers count under
// the shared and abandoned counters.
func NewFlightGroup[V any](shared, abandoned string) *FlightGroup[V] {
	return &FlightGroup[V]{calls: make(map[string]*flightCall[V]), shared: shared, abandoned: abandoned}
}

// Do runs fn once per key among concurrent callers; shared reports
// whether this caller joined another caller's flight. A follower's wait
// is bounded by ctx: if the caller's request is canceled while the
// leader is still computing, the follower returns ctx.Err() immediately
// instead of inheriting the leader's schedule (the leader is not
// interrupted — its result still reaches every caller that outlasts it).
func (g *FlightGroup[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			telemetry.Add(g.abandoned, 1)
			return val, ctx.Err(), true
		}
		telemetry.Add(g.shared, 1)
		return c.val, c.err, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	close(c.done)

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	return c.val, c.err, false
}
