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

// factoredStructure is FactoredStructure built for f alone, with no
// memo and no pairing: the oracle the memoized answers must equal.
func factoredStructure(f tt.TT) *aig.AIG {
	pos := SynthFactored([]tt.TT{f})
	neg := SynthFactored([]tt.TT{f.Not()})
	if neg.NumAnds() < pos.NumAnds() {
		neg.SetPO(0, neg.PO(0).Not())
		return neg
	}
	return pos
}

func TestMemoBoundedAndExact(t *testing.T) {
	const limit = 8
	c := memo[int, *aig.AIG]{limit: limit}
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

	// A table over 10 variables has no memo key and is built uncached,
	// to the same structure: (x0 ∧ x1) ∨ (x2 ∧ x3) ∨ … ∨ x10.
	wide := tt.Var(10, 11)
	for v := 0; v < 10; v += 2 {
		wide = wide.Or(tt.Var(v, 11).And(tt.Var(v+1, 11)))
	}
	if got := FactoredStructure(wide); !sameNodes(got, factoredStructure(wide)) {
		t.Errorf("11-variable structure for %s differs from an uncached build", wide.Hex())
	}
}

// TestFactoredPairsMatchUnpaired: a memo entry serves both f and ¬f, and
// each answer must be node for node the structure an unpaired build of
// that polarity gives — including the functions whose complement factors
// strictly smaller, where one polarity takes the other's form.
func TestFactoredPairsMatchUnpaired(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	flipped := 0
	for trial := 0; trial < 36; trial++ {
		f := tt.Random(2+trial%7, r)
		if trial%3 == 0 {
			// A sparse function, whose complement factors larger.
			f = f.And(tt.Random(f.NumVars(), r)).And(tt.Random(f.NumVars(), r))
		}
		for _, g := range []tt.TT{f, f.Not()} {
			want := factoredStructure(g)
			if got := FactoredStructure(g); !sameNodes(got, want) {
				t.Fatalf("trial %d: paired structure for %s differs from the unpaired build", trial, g.Hex())
			}
			if want.NumAnds() < SynthFactored([]tt.TT{g}).NumAnds() {
				flipped++
			}
		}
	}
	if flipped == 0 {
		t.Error("no function took its complement's form; the tie rule went untested")
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
