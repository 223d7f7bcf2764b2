package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simil"
)

// TestFlightGroupFollowerCancel: a singleflight follower whose request
// is canceled must stop waiting immediately instead of inheriting the
// leader's schedule. The leader is not interrupted — its result still
// lands in the flight for any caller that outlasts it.
//
// Regression: FlightGroup.Do used to wait on the leader's done channel
// with a bare receive, so a canceled request (client gone, deadline
// passed) stayed parked for as long as the leader's computation took.
func TestFlightGroupFollowerCancel(t *testing.T) {
	g := NewFlightGroup[float64]("service/singleflight_shared", "service/singleflight_abandoned")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan float64, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func() (float64, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
		leaderOut <- v
	}()
	<-leaderIn // the flight for "k" is registered and computing

	ctx, cancel := context.WithCancel(context.Background())
	followerOut := make(chan error, 1)
	go func() {
		_, err, shared := g.Do(ctx, "k", func() (float64, error) {
			t.Error("follower ran the computation despite an in-flight leader")
			return 0, nil
		})
		if !shared {
			t.Error("follower did not join the leader's flight")
		}
		followerOut <- err
	}()

	cancel()
	select {
	case err := <-followerOut:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower stayed parked behind the leader")
	}

	close(release)
	if v := <-leaderOut; v != 42 {
		t.Fatalf("leader returned %v, want 42 (follower cancellation must not disturb the leader)", v)
	}
}

// sameShardFP returns the i-th of a run of fingerprints whose pairs all
// land in shard 0 (shardOf XORs the last byte of each fingerprint).
func sameShardFP(i int) string { return fmt.Sprintf("%030x00", i+1) }

func mustKey(t testing.TB, a, b string) pairKey {
	t.Helper()
	k, _, ok := newPairKey(a, b)
	if !ok {
		t.Fatalf("pair (%s, %s) did not key", a, b)
	}
	return k
}

func allScores(v float64) scoreSet {
	var ss scoreSet
	for i := range ss.vals {
		ss.set(i, v+float64(i))
	}
	return ss
}

const allMetrics = 1<<simil.NumMetrics - 1

// TestPairCacheLRU: capacity counts pairs, however many metrics each
// holds; a full shard evicts its least recently used pair, and a get
// refreshes the pair it finds.
func TestPairCacheLRU(t *testing.T) {
	c := newResultCache(3 * cacheShards) // three pairs per shard
	ctx := context.Background()
	key := func(i int) pairKey { return mustKey(t, sameShardFP(0), sameShardFP(i)) }
	for i := 1; i <= 3; i++ {
		for m := 0; m < simil.NumMetrics; m++ { // one metric at a time, as fills arrive
			var ss scoreSet
			ss.set(m, float64(i))
			c.put(key(i), ss)
		}
	}
	if n := len(c.entries()); n != 3 {
		t.Fatalf("3 pairs of 10 metrics make %d entries, want 3", n)
	}
	if got, _ := c.get(ctx, key(1), allMetrics); got.have != allMetrics {
		t.Fatalf("pair 1 holds mask %b, want all ten metrics", got.have)
	}
	c.put(key(4), allScores(4)) // evicts pair 2, the least recently used
	for i, want := range map[int]bool{1: true, 2: false, 3: true, 4: true} {
		if got, _ := c.get(ctx, key(i), allMetrics); (got.have != 0) != want {
			t.Errorf("pair %d cached = %v, want %v", i, got.have != 0, want)
		}
	}
	checkShards(t, c)
}

// TestPairCachePartialEntries: a pair filled one metric at a time, as
// cluster fills arrive, answers PairFromCache only once every asked
// metric is present, and never for a metric it lacks.
func TestPairCachePartialEntries(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	a, b := sameShardFP(1), sameShardFP(2)
	svc.FillPairCache(a, b, map[string]float64{"VEO": 0.5})
	if _, ok := svc.PairFromCache(ctx, a, b, []string{"VEO", "ASD"}); ok {
		t.Fatal("hit with ASD missing")
	}
	if got, ok := svc.PairFromCache(ctx, a, b, []string{"VEO"}); !ok || got["VEO"] != 0.5 || len(got) != 1 {
		t.Fatalf("VEO alone: %v %v, want map[VEO:0.5] true", got, ok)
	}
	svc.FillPairCache(b, a, map[string]float64{"ASD": 2})
	got, ok := svc.PairFromCache(ctx, a, b, []string{"ASD", "VEO"})
	if !ok || got["VEO"] != 0.5 || got["ASD"] != 2 || len(got) != 2 {
		t.Fatalf("after both fills: %v %v", got, ok)
	}
	if _, ok := svc.PairFromCache(ctx, a, b, []string{"ASD", "VEO", "RGC"}); ok {
		t.Fatal("hit with RGC missing")
	}
}

// TestPairCacheOperandOrder: (A,B) and (B,A) share one entry, and the
// handoff view names the pair in sorted order.
func TestPairCacheOperandOrder(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	a, b := sameShardFP(7), sameShardFP(3) // a sorts after b
	svc.FillPairCache(a, b, map[string]float64{"RGC": 0.25})
	got, ok := svc.PairFromCache(context.Background(), b, a, []string{"RGC"})
	if !ok || got["RGC"] != 0.25 {
		t.Fatalf("swapped lookup: %v %v", got, ok)
	}
	res := svc.CachedPairResults()
	if len(res) != 1 || res[0].A != b || res[0].B != a {
		t.Fatalf("CachedPairResults = %+v, want one pair (%s, %s)", res, b, a)
	}
}

// TestPairCacheRefusesBadInput: a fingerprint that is not 32 lowercase
// hex digits, and a metric outside the registry, never get an entry.
func TestPairCacheRefusesBadInput(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	good := sameShardFP(1)
	for _, bad := range []string{"", "xyz", strings.ToUpper(sameShardFP(0xabc)), sameShardFP(1)[1:], sameShardFP(1) + "0", strings.Repeat("g", 32)} {
		svc.FillPairCache(good, bad, map[string]float64{"VEO": 1})
		svc.FillPairCache(bad, good, map[string]float64{"VEO": 1})
		if _, ok := svc.PairFromCache(ctx, good, bad, []string{"VEO"}); ok {
			t.Errorf("lookup with fingerprint %q hit", bad)
		}
	}
	other := sameShardFP(2)
	svc.FillPairCache(good, other, map[string]float64{"NotAMetric": 1})
	if _, ok := svc.PairFromCache(ctx, good, other, []string{"NotAMetric"}); ok {
		t.Error("lookup of an unknown metric hit")
	}
	if res := svc.CachedPairResults(); len(res) != 0 {
		t.Fatalf("bad input made entries: %+v", res)
	}
	svc.FillPairCache(good, other, map[string]float64{"NotAMetric": 1, "RLC": 0.5})
	res := svc.CachedPairResults()
	if len(res) != 1 || !reflect.DeepEqual(res[0].Scores, map[string]float64{"RLC": 0.5}) {
		t.Fatalf("mixed fill cached %+v, want only RLC", res)
	}
}

// regroupOracle is CachedPairResults as it was when the cache held one
// "metric|fpA|fpB" line per score: group the lines by pair and sort by
// (A, B).
func regroupOracle(lines map[string]float64) []PairResult {
	byPair := make(map[string]*PairResult)
	for key, val := range lines {
		parts := strings.SplitN(key, "|", 3)
		pk := parts[1] + "|" + parts[2]
		pr, ok := byPair[pk]
		if !ok {
			pr = &PairResult{A: parts[1], B: parts[2], Scores: make(map[string]float64)}
			byPair[pk] = pr
		}
		pr.Scores[parts[0]] = val
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

// TestCachedPairResultsMatchesRegrouping: per-metric fills of random
// pairs, in either operand order and overwriting each other, read back
// exactly as the per-line cache's regrouping read them.
func TestCachedPairResultsMatchesRegrouping(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	rng := rand.New(rand.NewSource(1))
	fps := make([]string, 24)
	for i := range fps {
		fps[i] = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	}
	metrics := simil.Metrics()
	lines := map[string]float64{}
	for n := 0; n < 2000; n++ {
		a, b := fps[rng.Intn(len(fps))], fps[rng.Intn(len(fps))]
		name := metrics[rng.Intn(len(metrics))].Name
		v := rng.Float64()
		svc.FillPairCache(a, b, map[string]float64{name: v})
		lo, hi := min(a, b), max(a, b)
		lines[name+"|"+lo+"|"+hi] = v
	}
	got, want := svc.CachedPairResults(), regroupOracle(lines)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CachedPairResults differs from the regrouping oracle: %d pairs vs %d", len(got), len(want))
	}
}

// TestPairCacheConcurrent races gets, puts and evictions over a cache
// far smaller than its key set. Every hit must return the value put
// for its (pair, metric), and every shard must end consistent.
func TestPairCacheConcurrent(t *testing.T) {
	c := newResultCache(4 * cacheShards)
	fps := make([]string, 20)
	for i := range fps {
		fps[i] = fmt.Sprintf("%030x%02x", i*7919, i)
	}
	value := func(k pairKey, m int) float64 { return float64(k[3]) + float64(k[19])/256 + float64(m)*1000 }
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 3000; n++ {
				k, _, _ := newPairKey(fps[rng.Intn(len(fps))], fps[rng.Intn(len(fps))])
				m := rng.Intn(simil.NumMetrics)
				if rng.Intn(2) == 0 {
					var ss scoreSet
					ss.set(m, value(k, m))
					c.put(k, ss)
					continue
				}
				got, _ := c.get(context.Background(), k, allMetrics)
				for i := range got.vals {
					if got.have&(1<<i) != 0 && got.vals[i] != value(k, i) {
						t.Errorf("metric %d of a pair read %v, put %v", i, got.vals[i], value(k, i))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkShards(t, c)
}

// checkShards verifies each shard's index, slab and recency list agree
// and stay within capacity.
func checkShards(t *testing.T, c *resultCache) {
	t.Helper()
	for si := range c.shards {
		s := &c.shards[si]
		pairs := len(s.slab) - 1
		if pairs > s.cap || len(s.index) != pairs {
			t.Fatalf("shard %d: %d pairs, %d indexed, cap %d", si, pairs, len(s.index), s.cap)
		}
		n, prev := 0, int32(0)
		for i := s.slab[0].next; i != 0; i = s.slab[i].next {
			e := &s.slab[i]
			if e.prev != prev || s.index[e.key] != i || e.have == 0 || shardOf(e.key) != si || n == pairs {
				t.Fatalf("shard %d: slot %d inconsistent", si, i)
			}
			prev, n = i, n+1
		}
		if prev != s.slab[0].prev || n != pairs {
			t.Fatalf("shard %d: list of %d ends at %d, want %d pairs ending at %d", si, n, prev, pairs, s.slab[0].prev)
		}
	}
}
