package sketch

import (
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// Candidate is one ranked retrieval result: a fingerprint and its
// sketch distance from the query under the ranking the caller chose.
type Candidate struct {
	FP   string
	Dist float64
}

// Index is the in-memory locality-sensitive index: signatures keyed by
// fingerprint plus one bucket map per band of each sketch family.
// Membership mutations (Insert/Remove) are O(bands); queries
// touch only the buckets the query signature lands in, falling back to
// a linear sketch scan only when banding surfaces fewer candidates
// than the caller's budget. Safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	sigs map[string]*Signature
	wl   [WLBands]map[uint64]map[string]struct{}
	feat [FeatBands]map[uint64]map[string]struct{}
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{sigs: make(map[string]*Signature)}
	for b := range ix.wl {
		ix.wl[b] = make(map[uint64]map[string]struct{})
	}
	for b := range ix.feat {
		ix.feat[b] = make(map[uint64]map[string]struct{})
	}
	return ix
}

// Fingerprints returns the indexed fingerprints in sorted order.
func (ix *Index) Fingerprints() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.sigs))
	for fp := range ix.sigs {
		out = append(out, fp)
	}
	sort.Strings(out)
	return out
}

// Insert adds (or replaces) a fingerprint's signature and buckets it
// into every band.
func (ix *Index) Insert(fp string, sig *Signature) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.sigs[fp]; ok {
		ix.unbucket(fp, old)
	}
	ix.sigs[fp] = sig
	ix.bucket(fp, sig)
	telemetry.Add("sketch/index_inserts", 1)
}

// Remove drops a fingerprint from the index. Unknown fingerprints are
// a no-op.
func (ix *Index) Remove(fp string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sig, ok := ix.sigs[fp]
	if !ok {
		return
	}
	ix.unbucket(fp, sig)
	delete(ix.sigs, fp)
	telemetry.Add("sketch/index_removes", 1)
}

func (ix *Index) bucket(fp string, sig *Signature) {
	for b := 0; b < WLBands; b++ {
		key := sig.wlBandKey(b)
		set := ix.wl[b][key]
		if set == nil {
			set = make(map[string]struct{})
			ix.wl[b][key] = set
		}
		set[fp] = struct{}{}
	}
	for b := 0; b < FeatBands; b++ {
		key := sig.featBandKey(b)
		set := ix.feat[b][key]
		if set == nil {
			set = make(map[string]struct{})
			ix.feat[b][key] = set
		}
		set[fp] = struct{}{}
	}
}

func (ix *Index) unbucket(fp string, sig *Signature) {
	for b := 0; b < WLBands; b++ {
		key := sig.wlBandKey(b)
		if set := ix.wl[b][key]; set != nil {
			delete(set, fp)
			if len(set) == 0 {
				delete(ix.wl[b], key)
			}
		}
	}
	for b := 0; b < FeatBands; b++ {
		key := sig.featBandKey(b)
		if set := ix.feat[b][key]; set != nil {
			delete(set, fp)
			if len(set) == 0 {
				delete(ix.feat[b], key)
			}
		}
	}
}

// Query retrieves up to limit candidates for a query signature, ranked
// by dist (ascending, ties broken by fingerprint so the result is
// deterministic). fp itself is excluded. bandHits reports how many
// distinct fingerprints banding surfaced before ranking and capping —
// the telemetry input for the candidates/pruned counters.
//
// When banding surfaces fewer than limit candidates (a query far from
// every bucket, or a tiny index), the remaining budget is backfilled
// by a linear sketch scan: recall degrades to the sketch estimate's
// quality, never to an empty answer.
func (ix *Index) Query(fp string, sig *Signature, dist func(*Signature) float64, limit int) (cands []Candidate, bandHits int) {
	if limit <= 0 {
		return nil, 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := make(map[string]struct{})
	for b := 0; b < WLBands; b++ {
		for member := range ix.wl[b][sig.wlBandKey(b)] {
			if member != fp {
				seen[member] = struct{}{}
			}
		}
	}
	for b := 0; b < FeatBands; b++ {
		for member := range ix.feat[b][sig.featBandKey(b)] {
			if member != fp {
				seen[member] = struct{}{}
			}
		}
	}
	bandHits = len(seen)
	if bandHits < limit {
		for member := range ix.sigs {
			if member != fp {
				seen[member] = struct{}{}
			}
		}
	}
	cands = make([]Candidate, 0, len(seen))
	for member := range seen {
		cands = append(cands, Candidate{FP: member, Dist: dist(ix.sigs[member])})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Dist != cands[j].Dist {
			return cands[i].Dist < cands[j].Dist
		}
		return cands[i].FP < cands[j].FP
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	return cands, bandHits
}

// Family selects which sketch families vouch for candidates. Scoping
// matters because the families have very different selectivity on
// homogeneous corpora: same-generator graphs often have near-identical
// NetSimile feature directions (feature bands vouch for almost every
// pair — correctly, they ARE feature-similar) while their WL label
// multisets still separate cleanly. A caller pruning for a WL-family
// metric should therefore consult WL bands only.
type Family uint8

// The band families.
const (
	FamilyWL Family = 1 << iota
	FamilyFeat

	FamilyAll = FamilyWL | FamilyFeat
)

// CandidatePairs returns every unordered fingerprint pair sharing at
// least one band bucket of the selected families, sorted (pairs
// ordered, list sorted) so the output is deterministic. This is the
// all-pairs pruning primitive the oversized-batch path uses: full
// metric evaluation is spent only on pairs some selected band
// considers similar.
func (ix *Index) CandidatePairs(fam Family) [][2]string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pairSet := make(map[[2]string]struct{})
	collect := func(set map[string]struct{}) {
		if len(set) < 2 {
			return
		}
		members := make([]string, 0, len(set))
		for fp := range set {
			members = append(members, fp)
		}
		sort.Strings(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				pairSet[[2]string{members[i], members[j]}] = struct{}{}
			}
		}
	}
	if fam&FamilyWL != 0 {
		for b := range ix.wl {
			for _, set := range ix.wl[b] {
				collect(set)
			}
		}
	}
	if fam&FamilyFeat != 0 {
		for b := range ix.feat {
			for _, set := range ix.feat[b] {
				collect(set)
			}
		}
	}
	pairs := make([][2]string, 0, len(pairSet))
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}
