package synth

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/gatenet"
	"repro/internal/tt"
)

func randSpec(n, outs int, r *rand.Rand) []tt.TT {
	spec := make([]tt.TT, outs)
	for i := range spec {
		spec[i] = tt.Random(n, r)
	}
	return spec
}

func specAIGEquivalent(t *testing.T, spec []tt.TT, g *aig.AIG, recipe string) {
	t.Helper()
	if g.NumPOs() != len(spec) {
		t.Fatalf("%s: %d POs for %d outputs", recipe, g.NumPOs(), len(spec))
	}
	outs := g.OutputTTs()
	for i := range spec {
		if !outs[i].Equal(spec[i]) {
			t.Fatalf("%s: output %d differs from spec", recipe, i)
		}
	}
	if err := g.Check(); err != nil {
		t.Fatalf("%s: structural check: %v", recipe, err)
	}
}

func TestAllRecipesCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		n := 3 + trial%5
		spec := randSpec(n, 1+trial%3, r)
		for _, rec := range Recipes() {
			g := rec.Build(spec)
			specAIGEquivalent(t, spec, g, rec.Name)
		}
	}
}

func TestRecipesOnStructuredFunctions(t *testing.T) {
	n := 6
	va := func(i int) tt.TT { return tt.Var(i, n) }
	specs := map[string][]tt.TT{
		"xor6":   {va(0).Xor(va(1)).Xor(va(2)).Xor(va(3)).Xor(va(4)).Xor(va(5))},
		"and6":   {va(0).And(va(1)).And(va(2)).And(va(3)).And(va(4)).And(va(5))},
		"mux":    {va(0).And(va(1)).Or(va(0).Not().And(va(2)))},
		"const":  {tt.Const(n, true), tt.Const(n, false)},
		"addbit": {va(0).Xor(va(1)).Xor(va(2)), va(0).And(va(1)).Or(va(2).And(va(0).Xor(va(1))))},
	}
	for name, spec := range specs {
		for _, rec := range Recipes() {
			g := rec.Build(spec)
			specAIGEquivalent(t, spec, g, name+"/"+rec.Name)
		}
	}
}

func TestRecipesProduceDiversity(t *testing.T) {
	// On a nontrivial function the seven recipes should not all produce
	// the same node count — that diversity is the entire point.
	r := rand.New(rand.NewSource(82))
	spec := randSpec(7, 2, r)
	sizes := make(map[int]bool)
	for _, rec := range Recipes() {
		sizes[rec.Build(spec).NumAnds()] = true
	}
	if len(sizes) < 3 {
		t.Errorf("only %d distinct sizes across 7 recipes; diversity too low", len(sizes))
	}
}

func TestSynthesizeDispatch(t *testing.T) {
	spec := []tt.TT{tt.Var(0, 3).And(tt.Var(1, 3))}
	g, err := Synthesize("sop", spec)
	if err != nil || g == nil {
		t.Fatalf("Synthesize(sop): %v", err)
	}
	if _, err := Synthesize("nope", spec); err == nil {
		t.Error("unknown recipe should error")
	}
	if len(Recipes()) != 7 {
		t.Errorf("want 7 recipes, have %d", len(Recipes()))
	}
}

func TestBalancedTrees(t *testing.T) {
	g := aig.New(8)
	lits := inputLits(g)
	and := BalancedAnd(g, lits)
	if g.Level(and.Node()) != 3 {
		t.Errorf("balanced AND8 depth = %d, want 3", g.Level(and.Node()))
	}
	g2 := aig.New(8)
	chain := ChainAnd(g2, inputLits(g2))
	if g2.Level(chain.Node()) != 7 {
		t.Errorf("chain AND8 depth = %d, want 7", g2.Level(chain.Node()))
	}
	// Empty and singleton cases.
	if BalancedAnd(g, nil) != aig.LitTrue || BalancedOr(g, nil) != aig.LitFalse {
		t.Error("empty tree identities wrong")
	}
	if gatenet.BalancedXor(g, nil) != aig.LitFalse {
		t.Error("empty XOR should be false")
	}
	one := []aig.Lit{g.PI(0)}
	if BalancedAnd(g, one) != g.PI(0) || gatenet.BalancedXor(g, one) != g.PI(0) {
		t.Error("singleton tree should be identity")
	}
}

func TestXorTreeCorrect(t *testing.T) {
	g := aig.New(5)
	g.AddPO(gatenet.BalancedXor(g, inputLits(g)))
	want := tt.Var(0, 5)
	for v := 1; v < 5; v++ {
		want = want.Xor(tt.Var(v, 5))
	}
	if !g.OutputTTs()[0].Equal(want) {
		t.Error("XOR tree function wrong")
	}
}

func TestBestStructureCorrectAndSmall(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		n := 2 + trial%4
		f := tt.Random(n, r)
		mini := BestStructure(f)
		if mini.NumPOs() != 1 {
			t.Fatal("BestStructure must be single-output")
		}
		if !mini.OutputTTs()[0].Equal(f) {
			t.Fatalf("trial %d: BestStructure wrong function", trial)
		}
	}
	// Known sizes: AND2 = 1 node, XOR2 = 3 nodes, MAJ3 <= 4 nodes.
	and2 := BestStructure(tt.Var(0, 2).And(tt.Var(1, 2)))
	if and2.NumAnds() != 1 {
		t.Errorf("AND2 structure has %d nodes", and2.NumAnds())
	}
	xor2 := BestStructure(tt.Var(0, 2).Xor(tt.Var(1, 2)))
	if xor2.NumAnds() > 3 {
		t.Errorf("XOR2 structure has %d nodes, want <= 3", xor2.NumAnds())
	}
	maj := tt.Var(0, 3).And(tt.Var(1, 3)).Or(tt.Var(0, 3).And(tt.Var(2, 3))).Or(tt.Var(1, 3).And(tt.Var(2, 3)))
	if got := BestStructure(maj).NumAnds(); got > 4 {
		t.Errorf("MAJ3 structure has %d nodes, want <= 4", got)
	}
}

func TestLibraryStructure(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for trial := 0; trial < 100; trial++ {
		n := 2 + trial%3
		f := tt.Random(n, r)
		g := LibraryStructure(f)
		if !g.OutputTTs()[0].Equal(f) {
			t.Fatalf("trial %d: library structure wrong for %s", trial, f.Hex())
		}
	}
	if npnClasses.len() == 0 {
		t.Error("library should have cached classes")
	}
	// NPN-equivalent functions share one cache entry: library size grows
	// slower than call count.
	before := npnClasses.len()
	f := tt.Var(0, 3).And(tt.Var(1, 3)).Or(tt.Var(2, 3))
	xf := tt.NPNTransform{Perm: []int{2, 0, 1}, Flips: 0b101, OutFlip: true}
	_ = LibraryStructure(f)
	mid := npnClasses.len()
	_ = LibraryStructure(xf.Apply(f))
	if npnClasses.len() != mid {
		t.Error("NPN-equivalent function created a new library entry")
	}
	_ = before
}

func TestInstantiateMatchesCost(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	for trial := 0; trial < 30; trial++ {
		f := tt.Random(4, r)
		mini := BestStructure(f)
		dst := aig.New(6)
		// Pre-populate dst with some structure over the same leaves to
		// exercise sharing.
		leaves := []aig.Lit{dst.PI(0), dst.PI(2), dst.PI(3).Not(), dst.PI(5)}
		dst.And(leaves[0], leaves[1])
		dst.And(dst.And(leaves[0], leaves[1]), leaves[2])
		before := dst.NumAnds()
		predicted := InstantiateCostBlocked(dst, mini, leaves, nil)
		out := Instantiate(dst, mini, leaves)
		added := dst.NumAnds() - before
		if predicted != added {
			t.Fatalf("trial %d: predicted %d new nodes, actually added %d", trial, predicted, added)
		}
		// Function must be f over the leaves.
		dst.AddPO(out)
		po := dst.NumPOs() - 1
		got := dst.OutputTTs()[po]
		// Build expected: f with variables mapped to leaf functions.
		vars := []tt.TT{tt.Var(0, 6), tt.Var(2, 6), tt.Var(3, 6).Not(), tt.Var(5, 6)}
		want := tt.New(6)
		for m := 0; m < 16; m++ {
			if !f.Bit(m) {
				continue
			}
			part := tt.Const(6, true)
			for i, vt := range vars {
				if m>>uint(i)&1 == 1 {
					part = part.And(vt)
				} else {
					part = part.And(vt.Not())
				}
			}
			want = want.Or(part)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: instantiated function wrong", trial)
		}
	}
}

func TestTopDecomp(t *testing.T) {
	n := 4
	f := tt.Var(0, n).And(tt.Var(1, n).Or(tt.Var(2, n)))
	v, op, rest, ok := topDecomp(f)
	if !ok || v != 0 || op != opAnd {
		t.Fatalf("topDecomp: v=%d op=%d ok=%v", v, op, ok)
	}
	if !rest.Equal(tt.Var(1, n).Or(tt.Var(2, n))) {
		t.Error("residual wrong")
	}
	// XOR decomposition.
	g := tt.Var(3, n).Xor(tt.Var(1, n).And(tt.Var(2, n)))
	_, op, _, ok = topDecomp(g)
	if !ok || op != opXor {
		t.Errorf("XOR decomp not found: op=%d ok=%v", op, ok)
	}
	// Majority has no single-variable decomposition.
	maj := tt.Var(0, 3).And(tt.Var(1, 3)).Or(tt.Var(0, 3).And(tt.Var(2, 3))).Or(tt.Var(1, 3).And(tt.Var(2, 3)))
	if _, _, _, ok := topDecomp(maj); ok {
		t.Error("majority should not decompose")
	}
}

func TestANFRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(86))
	for trial := 0; trial < 30; trial++ {
		n := 1 + trial%6
		f := tt.Random(n, r)
		if !tt.FromANF(n, f.ANF()).Equal(f) {
			t.Fatalf("trial %d: ANF round trip failed", trial)
		}
	}
	// XOR has exactly the singleton monomials.
	x := tt.Var(0, 3).Xor(tt.Var(1, 3)).Xor(tt.Var(2, 3))
	mon := x.ANF()
	if len(mon) != 3 {
		t.Errorf("xor3 ANF has %d monomials, want 3", len(mon))
	}
}

func TestSynthANFDenseFallback(t *testing.T) {
	// A random function has an exponentially dense ANF; the recipe must
	// fall back to the LUT-cascade form, stay correct, and stay within
	// the same order of magnitude as the factored recipe.
	r := rand.New(rand.NewSource(87))
	f := tt.Random(10, r)
	g := SynthANF([]tt.TT{f})
	if !g.OutputTTs()[0].Equal(f) {
		t.Error("dense ANF fallback produced wrong function")
	}
	fx := SynthFactored([]tt.TT{f})
	if g.NumAnds() > 4*fx.NumAnds() {
		t.Errorf("ANF fallback still pathological: %d vs fx %d", g.NumAnds(), fx.NumAnds())
	}
}

func TestSynthANFKeepsXorFormWhenCompact(t *testing.T) {
	// Parity has a 1-monomial-per-variable ANF; the recipe must keep the
	// XOR expansion (3(n-1) AND nodes) rather than fall back.
	n := 8
	f := tt.Var(0, n)
	for v := 1; v < n; v++ {
		f = f.Xor(tt.Var(v, n))
	}
	g := SynthANF([]tt.TT{f})
	if !g.OutputTTs()[0].Equal(f) {
		t.Fatal("parity ANF wrong")
	}
	if g.NumAnds() != 3*(n-1) {
		t.Errorf("parity%d ANF uses %d ANDs, want %d", n, g.NumAnds(), 3*(n-1))
	}
}
