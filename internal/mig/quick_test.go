package mig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/aig"
	"repro/internal/tt"
)

// TestQuickRecipesEquivalent property-tests every MIG recipe and the
// rewriting pass on random functions.
func TestQuickRecipesEquivalent(t *testing.T) {
	f := func(w uint64, recipeIdx uint8) bool {
		fn := tt.FromWords(6, []uint64{w})
		recipes := Recipes()
		rec := recipes[int(recipeIdx)%len(recipes)]
		g := rec.Build([]tt.TT{fn})
		if !g.OutputTTs()[0].Equal(fn) {
			return false
		}
		ng := RewriteOnce(g)
		return ng.OutputTTs()[0].Equal(fn) && ng.NumGates() <= g.NumGates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMajorityAlgebra checks the majority axioms on random literal
// triples: invariance under permutation and the self-duality law.
func TestQuickMajorityAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New(5)
		pick := func() aig.Lit { return g.PI(r.Intn(5)).NotCond(r.Intn(2) == 1) }
		a, b, c := pick(), pick(), pick()
		m := g.Maj(a, b, c)
		// Permutation invariance (all six orders give the same literal).
		if g.Maj(a, c, b) != m || g.Maj(b, a, c) != m ||
			g.Maj(b, c, a) != m || g.Maj(c, a, b) != m || g.Maj(c, b, a) != m {
			return false
		}
		// Self-duality.
		return g.Maj(a.Not(), b.Not(), c.Not()) == m.Not()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickConversionRoundTrip checks MIG->AIG->MIG equivalence.
func TestQuickConversionRoundTrip(t *testing.T) {
	f := func(w uint64) bool {
		fn := tt.FromWords(5, []uint64{w & (1<<32 - 1)})
		fn = fn.Expand(5)
		g := SynthShannon([]tt.TT{fn})
		back := FromAIG(g.ToAIG())
		return back.OutputTTs()[0].Equal(fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
