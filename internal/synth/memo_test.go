package synth

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/tt"
)

// sameNodes reports whether a and b are the same AIG node for node.
func sameNodes(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumObjs() != b.NumObjs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	for id := a.NumPIs() + 1; id < a.NumObjs(); id++ {
		a0, a1 := a.Fanins(id)
		b0, b1 := b.Fanins(id)
		if a0 != b0 || a1 != b1 {
			return false
		}
	}
	for i := 0; i < a.NumPOs(); i++ {
		if a.PO(i) != b.PO(i) {
			return false
		}
	}
	return true
}

func TestMemoBoundedAndExact(t *testing.T) {
	const limit = 8
	c := memo[int]{limit: limit}
	builds := 0
	build := func() *aig.AIG {
		builds++
		return aig.New(builds)
	}
	first := c.get(0, build)
	if again := c.get(0, build); again != first || builds != 1 {
		t.Errorf("hit rebuilt or returned another value (%d builds)", builds)
	}
	for k := 0; k <= limit; k++ {
		c.get(k, build)
		if n := c.len(); n > limit {
			t.Fatalf("after key %d the memo holds %d entries, limit %d", k, n, limit)
		}
	}
	if c.len() == 0 {
		t.Error("memo is empty after a fresh insert")
	}

	// FactoredStructure answers from the memo with exactly the structure
	// an uncached build produces.
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 16; trial++ {
		n := 3 + trial%8
		f := tt.Random(n, r)
		got := FactoredStructure(f)
		if !got.OutputTTs()[0].Equal(f) {
			t.Fatalf("trial %d: factored structure does not implement %s", trial, f.Hex())
		}
		if again := FactoredStructure(f); again != got {
			t.Errorf("trial %d: a hit returned a different structure", trial)
		}
		if !sameNodes(got, factoredStructure(f)) {
			t.Errorf("trial %d: memoized structure differs from an uncached build", trial)
		}
	}
}

// TestStructureCachesConcurrent has several goroutines ask every
// structure cache for the same functions at once (run with -race). Each
// answer must implement its function, and every goroutine must get the
// one structure that was cached first.
func TestStructureCachesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	type query struct {
		f         tt.TT
		structure func(tt.TT) *aig.AIG
	}
	var qs []query
	for i := 0; i < 12; i++ {
		qs = append(qs,
			query{tt.Random(4, r), LibraryStructure},
			query{tt.Random(3+i%4, r), LUTStructure},
			query{tt.Random(5+i%4, r), FactoredStructure},
		)
	}
	const goroutines = 8
	got := make([][]*aig.AIG, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*aig.AIG, len(qs))
			for i := range qs {
				j := (i + 5*w) % len(qs) // each goroutine starts elsewhere
				out[j] = qs[j].structure(qs[j].f)
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for i, q := range qs {
		if !got[0][i].OutputTTs()[0].Equal(q.f) {
			t.Errorf("query %d: structure does not implement %s", i, q.f.Hex())
		}
		for w := 1; w < goroutines; w++ {
			if got[w][i] != got[0][i] {
				t.Errorf("query %d: goroutines 0 and %d got different structures", i, w)
			}
		}
	}
}
