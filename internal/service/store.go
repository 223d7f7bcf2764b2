package service

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"repro/internal/aig"
	"repro/internal/faultinject"
	"repro/internal/simil"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// PointStorePut is the fault-injection point on store interning. The
// store is in-memory and cannot fail, so only latency faults take
// effect here — they widen race windows between concurrent submits of
// identical structures, the interleaving the content-addressing tests
// hunt.
const PointStorePut = "service/store_put"

// storedAIG is one content-addressed store entry: the parsed, validated
// AIG plus its lazily built similarity profile. The profile is guarded
// by its own mutex, which doubles as the per-graph coalescing point:
// concurrent requests needing the same graph's artifacts line up behind
// one build instead of each computing their own.
type storedAIG struct {
	fp    string
	g     *aig.AIG
	stats aig.Stats

	// sig is the retrieval signature mirrored into the sketch index.
	// Written once by the store's prepare hook before the entry is
	// published, read-only afterwards.
	sig *sketch.Signature

	profMu  sync.Mutex
	profile *simil.Profile
}

// store is the content-addressed AIG store: structures are keyed by
// canonical fingerprint, so a resubmitted identical structure is
// parsed, validated, and profiled exactly once. Bounded by an LRU so
// heavy traffic cannot grow memory without limit.
type store struct {
	mu    sync.Mutex
	byFP  map[string]*list.Element
	order *list.List // front = most recently used
	cap   int

	// prepare, when set, runs on every newly interned entry before it
	// is published — outside mu, on a still-private entry — and is
	// where the server builds the base profile and retrieval signature.
	prepare func(context.Context, *storedAIG)
	// index, when set, mirrors store membership: Insert on intern and
	// Remove on evict both happen under mu, so a fingerprint is in the
	// index exactly when it is in the LRU — queries can never see an
	// evicted entry or miss a live one.
	index *sketch.Index
}

func newStore(capacity int) *store {
	return &store{byFP: make(map[string]*list.Element), order: list.New(), cap: capacity}
}

// put interns g (already validated by the caller) under its
// fingerprint. It returns the canonical entry and whether the structure
// was already known. ctx is the caller's, handed to the prepare hook.
func (s *store) put(ctx context.Context, g *aig.AIG) (*storedAIG, bool) {
	// Only latency faults matter here (see PointStorePut).
	_ = faultinject.HitCtx(ctx, PointStorePut)
	fp := g.Fingerprint()
	s.mu.Lock()
	if el, ok := s.byFP[fp]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		telemetry.Add("service/store_hits", 1)
		return el.Value.(*storedAIG), true
	}
	s.mu.Unlock()

	// New structure: build the entry — profile and retrieval signature
	// via the prepare hook — outside the lock. The entry is still
	// private, so prepare needs no synchronization; a racing identical
	// submit at worst prepares its own copy and discards it below
	// (construction is deterministic, the copies are interchangeable).
	e := &storedAIG{fp: fp, g: g, stats: g.Stat()}
	if s.prepare != nil {
		s.prepare(ctx, e)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byFP[fp]; ok {
		// A racing submit published first; its entry is canonical.
		s.order.MoveToFront(el)
		telemetry.Add("service/store_hits", 1)
		return el.Value.(*storedAIG), true
	}
	s.byFP[fp] = s.order.PushFront(e)
	if s.index != nil && e.sig != nil {
		s.index.Insert(fp, e.sig)
	}
	telemetry.Add("service/store_adds", 1)
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		ofp := oldest.Value.(*storedAIG).fp
		delete(s.byFP, ofp)
		if s.index != nil {
			s.index.Remove(ofp)
		}
		telemetry.Add("service/store_evictions", 1)
	}
	return e, false
}

// get returns the entry for a fingerprint, bumping its recency.
func (s *store) get(fp string) (*storedAIG, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byFP[fp]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*storedAIG), true
}

func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// snapshot returns the live entries sorted by fingerprint, without
// bumping recency — the deterministic iteration base for exact
// neighbor scans and diverse-subset pools.
func (s *store) snapshot() []*storedAIG {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*storedAIG, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storedAIG))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fp < out[j].fp })
	return out
}

// rebuildIndex atomically reconstructs the sketch index from current
// membership. Running under mu means no intern or evict can interleave
// with the rebuild: the new index is an exact mirror of the LRU at one
// instant.
func (s *store) rebuildIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sigs := make(map[string]*sketch.Signature, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*storedAIG); e.sig != nil {
			sigs[e.fp] = e.sig
		}
	}
	s.index.Reset(sigs)
	return len(sigs)
}
