package xag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/aig"
	"repro/internal/tt"
)

// TestQuickRecipesEquivalent property-tests every recipe and the
// rewriting pass against random functions: functional equivalence must
// hold unconditionally.
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
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickGateAlgebra checks XOR/AND algebraic identities on random
// literal combinations.
func TestQuickGateAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New(4)
		lits := []aig.Lit{g.PI(0), g.PI(1), g.PI(2), g.PI(3)}
		a := lits[r.Intn(4)].NotCond(r.Intn(2) == 1)
		b := lits[r.Intn(4)].NotCond(r.Intn(2) == 1)
		// Commutativity at the literal level.
		if g.Xor(a, b) != g.Xor(b, a) || g.And(a, b) != g.And(b, a) {
			return false
		}
		// XOR involution: (a ^ b) ^ b == a.
		x := g.Xor(g.Xor(a, b), b)
		g.AddPO(x)
		g.AddPO(a)
		outs := g.OutputTTs()
		return outs[0].Equal(outs[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
