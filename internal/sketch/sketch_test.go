package sketch

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randHist draws a random WL-style label histogram.
func randHist(r *rand.Rand, labels int) map[string]int {
	h := make(map[string]int, labels)
	for i := 0; i < labels; i++ {
		h[fmt.Sprintf("%d:%08x", i%4, r.Uint32())] = 1 + r.Intn(5)
	}
	return h
}

func randFeatures(r *rand.Rand) []float64 {
	f := make([]float64, FeatureDim)
	for d := range f {
		f[d] = r.NormFloat64() * float64(int64(1)<<(d%10))
	}
	return f
}

// mutateHist returns a copy with a few labels perturbed — a structural
// near-duplicate.
func mutateHist(r *rand.Rand, h map[string]int, edits int) map[string]int {
	out := make(map[string]int, len(h))
	for k, v := range h {
		out[k] = v
	}
	for i := 0; i < edits; i++ {
		out[fmt.Sprintf("mut:%08x", r.Uint32())] = 1
	}
	return out
}

// TestSignatureDeterminism: the same inputs must give identical
// signatures, however the histogram map is populated (the determinism
// contract the cluster's byte-stability invariant rests on).
func TestSignatureDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	h := randHist(r, 40)
	f := randFeatures(r)
	a := New(h, f)

	// Rebuild the histogram in a different insertion order.
	h2 := make(map[string]int)
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		h2[keys[i]] = h[keys[i]]
	}
	b := New(h2, append([]float64(nil), f...))
	if *a != *b {
		t.Fatal("signature depends on histogram construction order")
	}
	if d := a.WLDistance(b); d != 0 {
		t.Fatalf("self WL distance = %v, want 0", d)
	}
	if d := a.FeatDistance(b); d != 0 {
		t.Fatalf("self feature distance = %v, want 0", d)
	}
}

// TestDistanceOrdering: a near-duplicate must sketch closer than an
// unrelated graph — the property candidate ranking depends on.
func TestDistanceOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	base := randHist(r, 60)
	feats := randFeatures(r)
	sig := New(base, feats)
	near := New(mutateHist(r, base, 3), feats)
	far := New(randHist(r, 60), randFeatures(r))

	if dn, df := sig.WLDistance(near), sig.WLDistance(far); dn >= df {
		t.Errorf("WL distance: near %v >= far %v", dn, df)
	}
	if dn, df := sig.Distance(near), sig.Distance(far); dn >= df {
		t.Errorf("combined distance: near %v >= far %v", dn, df)
	}
}

// TestIndexRetrieval: banding must surface a near-duplicate as a
// candidate, rank it first, and never return the query itself.
func TestIndexRetrieval(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ix := NewIndex()
	base := randHist(r, 60)
	feats := randFeatures(r)
	qsig := New(base, feats)
	ix.Insert("query", qsig)
	ix.Insert("near", New(mutateHist(r, base, 2), feats))
	for i := 0; i < 30; i++ {
		ix.Insert(fmt.Sprintf("far%02d", i), New(randHist(r, 60), randFeatures(r)))
	}
	cands, bandHits := ix.Query("query", qsig, qsig.Distance, 5)
	if bandHits < 1 {
		t.Fatal("banding surfaced no candidates for a near-duplicate")
	}
	if len(cands) == 0 || cands[0].FP != "near" {
		t.Fatalf("top candidate = %+v, want near", cands)
	}
	for _, c := range cands {
		if c.FP == "query" {
			t.Fatal("query returned itself")
		}
	}
}

// TestIndexBackfill: when banding surfaces fewer candidates than the
// budget, the linear fallback must still fill it.
func TestIndexBackfill(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ix := NewIndex()
	for i := 0; i < 10; i++ {
		ix.Insert(fmt.Sprintf("g%02d", i), New(randHist(r, 60), randFeatures(r)))
	}
	q := New(randHist(r, 60), randFeatures(r))
	cands, _ := ix.Query("absent", q, q.Distance, 8)
	if len(cands) != 8 {
		t.Fatalf("got %d candidates with backfill, want 8", len(cands))
	}
}

// TestIndexRemove: removal drops the fingerprint and every bucket
// reference to it.
func TestIndexRemove(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ix := NewIndex()
	sigs := make(map[string]*Signature)
	for i := 0; i < 20; i++ {
		fp := fmt.Sprintf("g%02d", i)
		sigs[fp] = New(randHist(r, 40), randFeatures(r))
		ix.Insert(fp, sigs[fp])
	}
	ix.Remove("g07")
	if slices.Contains(ix.Fingerprints(), "g07") {
		t.Fatal("removed fingerprint still listed")
	}
	q := sigs["g07"]
	cands, _ := ix.Query("none", q, q.Distance, 50)
	for _, c := range cands {
		if c.FP == "g07" {
			t.Fatal("removed fingerprint still retrievable")
		}
	}
	if len(cands) != 19 {
		t.Fatalf("query returned %d candidates, want the 19 left", len(cands))
	}
}

// TestCandidatePairs: identical signatures must pair; the output is
// sorted and deduplicated.
func TestCandidatePairs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ix := NewIndex()
	h := randHist(r, 50)
	f := randFeatures(r)
	ix.Insert("b", New(h, f))
	ix.Insert("a", New(h, f))
	ix.Insert("c", New(randHist(r, 50), randFeatures(r)))
	pairs := ix.CandidatePairs(FamilyAll)
	found := false
	for i, p := range pairs {
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered", p)
		}
		if i > 0 && !(pairs[i-1][0] < p[0] || (pairs[i-1][0] == p[0] && pairs[i-1][1] < p[1])) {
			t.Errorf("pair list not sorted at %d: %v", i, pairs)
		}
		if p == [2]string{"a", "b"} {
			found = true
		}
	}
	if !found {
		t.Fatalf("identical signatures (a,b) not a candidate pair: %v", pairs)
	}
	// Family scoping: identical signatures collide in each family alone.
	for _, fam := range []Family{FamilyWL, FamilyFeat} {
		got := ix.CandidatePairs(fam)
		ok := false
		for _, p := range got {
			if p == [2]string{"a", "b"} {
				ok = true
			}
		}
		if !ok {
			t.Errorf("family %b candidate pairs miss (a,b): %v", fam, got)
		}
	}
}

// TestIndexConcurrency: concurrent inserts, removes, and queries under
// the race detector.
func TestIndexConcurrency(t *testing.T) {
	ix := NewIndex()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				fp := fmt.Sprintf("w%d-%d", w, i%10)
				sig := New(randHist(r, 20), randFeatures(r))
				ix.Insert(fp, sig)
				ix.Query(fp, sig, sig.Distance, 5)
				if i%3 == 0 {
					ix.Remove(fp)
				}
			}
		}(w)
	}
	wg.Wait()
}
