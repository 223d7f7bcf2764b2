package service

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// PointCacheGet is the fault-injection point on result-cache lookup: a
// firing schedule forces a miss, driving traffic down the singleflight
// + recompute path. Because a hit is bit-identical to fresh
// computation by construction, a forced miss must never change an
// answer — the chaos suite asserts exactly that.
const PointCacheGet = "service/cache_get"

// resultCache is a sharded in-memory LRU of pairwise metric scores
// keyed "(metric, fpA, fpB)" with the fingerprints in sorted order
// (every metric in the registry is symmetric). Sharding keeps lock
// contention bounded under concurrent traffic; each shard holds its own
// LRU list.
type resultCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	byKey map[string]*list.Element
	order *list.List // front = most recently used
	cap   int
}

type cacheItem struct {
	key string
	val float64
}

const cacheShards = 16

func newResultCache(entries int) *resultCache {
	perShard := entries / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &resultCache{shards: make([]cacheShard, cacheShards)}
	for i := range c.shards {
		c.shards[i] = cacheShard{byKey: make(map[string]*list.Element), order: list.New(), cap: perShard}
	}
	return c
}

func (c *resultCache) shardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % cacheShards)
}

func (c *resultCache) shard(key string) *cacheShard {
	return &c.shards[c.shardIndex(key)]
}

// get looks the key up and additionally reports which shard served it,
// so per-request traces can attribute contention to a specific shard.
// ctx carries the requesting trace for fault-injection attribution.
func (c *resultCache) get(ctx context.Context, key string) (val float64, shard int, ok bool) {
	shard = c.shardIndex(key)
	if err := faultinject.HitCtx(ctx, PointCacheGet); err != nil {
		telemetry.Add("service/cache_misses", 1)
		return 0, shard, false
	}
	s := &c.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		telemetry.Add("service/cache_misses", 1)
		return 0, shard, false
	}
	s.order.MoveToFront(el)
	telemetry.Add("service/cache_hits", 1)
	return el.Value.(*cacheItem).val, shard, true
}

func (c *resultCache) put(key string, val float64) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		el.Value.(*cacheItem).val = val
		s.order.MoveToFront(el)
		return
	}
	s.byKey[key] = s.order.PushFront(&cacheItem{key: key, val: val})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byKey, oldest.Value.(*cacheItem).key)
		telemetry.Add("service/cache_evictions", 1)
	}
}

// entries returns every cached (key, value) pair across all shards,
// without bumping recency — the enumeration base for membership-change
// key handoff. The slice is a point-in-time copy per shard (the cache
// may move under a concurrent walk; handoff tolerates that because a
// result installed anywhere is bit-identical).
func (c *resultCache) entries() []cacheItem {
	var out []cacheItem
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			it := el.Value.(*cacheItem)
			out = append(out, cacheItem{key: it.key, val: it.val})
		}
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
