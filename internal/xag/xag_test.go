package xag

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
	"repro/internal/workload"
)

func TestGateOps(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	g.AddPO(g.And(a, b))
	g.AddPO(g.Xor(a, b))
	g.AddPO(g.Or(a, b))
	g.AddPO(g.Mux(a, b, c))
	outs := g.OutputTTs()
	va, vb, vc := tt.Var(0, 3), tt.Var(1, 3), tt.Var(2, 3)
	if !outs[0].Equal(va.And(vb)) {
		t.Error("And wrong")
	}
	if !outs[1].Equal(va.Xor(vb)) {
		t.Error("Xor wrong")
	}
	if !outs[2].Equal(va.Or(vb)) {
		t.Error("Or wrong")
	}
	if !outs[3].Equal(va.And(vb).Or(va.Not().And(vc))) {
		t.Error("Mux wrong")
	}
	if err := g.Check(); err != nil {
		t.Error(err)
	}
}

func TestXorNormalization(t *testing.T) {
	g := New(2)
	a, b := g.PI(0), g.PI(1)
	x1 := g.Xor(a, b)
	x2 := g.Xor(a.Not(), b)
	x3 := g.Xor(a, b.Not())
	x4 := g.Xor(a.Not(), b.Not())
	if x2 != x1.Not() || x3 != x1.Not() || x4 != x1 {
		t.Error("XOR complement normalization broken")
	}
	if g.NumGates() != 1 {
		t.Errorf("4 polarity variants created %d gates, want 1", g.NumGates())
	}
	// Folding.
	if g.Xor(a, a) != aig.LitFalse || g.Xor(a, a.Not()) != aig.LitTrue {
		t.Error("XOR folding wrong")
	}
	if g.Xor(a, aig.LitFalse) != a || g.Xor(a, aig.LitTrue) != a.Not() {
		t.Error("XOR constant folding wrong")
	}
}

func TestXorCompactness(t *testing.T) {
	// parity-8: XAG needs 7 gates; an AIG needs ~21.
	g := SynthANF([]tt.TT{workload.Parity(8)})
	if g.NumGates() != 7 || g.NumXors() != 7 {
		t.Errorf("parity8 XAG: %v", g.Stat())
	}
}

func TestRecipesCorrectAndDiverse(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	for trial := 0; trial < 6; trial++ {
		n := 4 + trial%3
		spec := []tt.TT{tt.Random(n, r), tt.Random(n, r)}
		sizes := map[int]bool{}
		for _, rec := range Recipes() {
			g := rec.Build(spec)
			outs := g.OutputTTs()
			for i := range spec {
				if !outs[i].Equal(spec[i]) {
					t.Fatalf("trial %d %s: output %d wrong", trial, rec.Name, i)
				}
			}
			if err := g.Check(); err != nil {
				t.Fatalf("%s: %v", rec.Name, err)
			}
			sizes[g.NumGates()] = true
		}
		if len(sizes) < 2 {
			t.Errorf("trial %d: XAG recipes produced no diversity", trial)
		}
	}
}

func TestSynthesizeDispatch(t *testing.T) {
	spec := []tt.TT{tt.Var(0, 2).And(tt.Var(1, 2))}
	if _, err := Synthesize("anf", spec); err != nil {
		t.Error(err)
	}
	if _, err := Synthesize("nope", spec); err == nil {
		t.Error("unknown recipe should error")
	}
}

func TestFromAIGDetectsXor(t *testing.T) {
	// Build parity-6 as an AIG (3 ANDs per XOR motif, as Shannon
	// synthesis emits) and convert: the XAG should recover native XORs
	// and shrink. (A flat SOP cover contains no motifs — diversity again.)
	spec := []tt.TT{workload.Parity(6)}
	a := synth.SynthShannon(spec)
	x := FromAIG(a)
	if out := x.OutputTTs()[0]; !out.Equal(spec[0]) {
		t.Fatal("conversion changed function")
	}
	if x.NumXors() == 0 {
		t.Error("XOR motif detection found nothing in a parity circuit")
	}
	if x.NumGates() >= a.NumAnds() {
		t.Errorf("XAG (%d gates) not smaller than AIG (%d) on parity", x.NumGates(), a.NumAnds())
	}
}

func TestConversionRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(182))
	for trial := 0; trial < 10; trial++ {
		n := 4 + trial%3
		spec := []tt.TT{tt.Random(n, r), tt.Random(n, r)}
		a := synth.SynthFactored(spec)
		x := FromAIG(a)
		back := x.ToAIG()
		if idx, err := aig.Equivalent(a, back); err != nil || idx != -1 {
			t.Fatalf("trial %d: AIG->XAG->AIG broke output %d (%v)", trial, idx, err)
		}
	}
}

func TestCleanupDropsDangling(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	used := g.Xor(a, b)
	g.And(b, c) // dangling
	g.AddPO(used)
	ng := g.Cleanup()
	if ng.NumGates() != 1 {
		t.Errorf("Cleanup left %d gates", ng.NumGates())
	}
}

func TestRewritePreservesAndShrinks(t *testing.T) {
	r := rand.New(rand.NewSource(183))
	for trial := 0; trial < 6; trial++ {
		n := 5 + trial%2
		f := tt.Random(n, r)
		// The deliberately XOR-poor recipe leaves room for ANF rewrites.
		g := SynthFactored([]tt.TT{f})
		ng := Rewrite(g)
		if !ng.OutputTTs()[0].Equal(f) {
			t.Fatalf("trial %d: rewrite changed function", trial)
		}
		if ng.NumGates() > g.NumGates() {
			t.Fatalf("trial %d: rewrite grew %d -> %d", trial, g.NumGates(), ng.NumGates())
		}
		if err := ng.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRewriteFindsXorStructure(t *testing.T) {
	// parity built from SOP form must collapse dramatically via ANF.
	f := workload.Parity(6)
	g := SynthFactored([]tt.TT{f})
	ng := Rewrite(g)
	if ng.NumGates() >= g.NumGates() {
		t.Errorf("rewrite failed on parity: %d -> %d", g.NumGates(), ng.NumGates())
	}
	if ng.NumXors() == 0 {
		t.Error("rewrite introduced no XOR gates on parity")
	}
}

func TestDiversityScores(t *testing.T) {
	spec := []tt.TT{workload.Parity(6)}
	pa := NewProfile(SynthANF(spec))
	pb := NewProfile(SynthFactored(spec))
	if RGC(pa, pa) != 0 || RMC(pa, pa) != 0 || RLC(pa, pa) != 0 || RewriteScore(pa, pa) != 0 {
		t.Error("identity scores nonzero")
	}
	if RGC(pa, pb) <= 0 {
		t.Error("parity ANF vs factored should differ in gate count")
	}
	if RMC(pa, pb) <= 0 {
		t.Error("multiplicative complexity should differ")
	}
	for _, v := range []float64{RGC(pa, pb), RMC(pa, pb), RLC(pa, pb)} {
		if v < 0 || v > 1 {
			t.Errorf("score out of range: %f", v)
		}
	}
}

// TestRewriteAbove16Inputs rewrites a 17-input graph: cuts hold at most
// 8 leaves, so the pass must shrink it exactly as it shrinks the same
// logic over 16 inputs. Exhaustive simulation stops at 16 inputs, so the
// result is checked against its source by random simulation.
func TestRewriteAbove16Inputs(t *testing.T) {
	shrunk := func(n int) Stats {
		g := New(n)
		a, b := g.PI(0), g.PI(1)
		x := g.Or(g.And(a, b.Not()), g.And(a.Not(), b)) // XOR as AND/OR
		g.AddPO(g.And(x, g.PI(n-1)))
		ng := RewriteOnce(g)
		if err := ng.Check(); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(n)))
		if idx, err := aig.RandomSimCheck(g.ToAIG(), ng.ToAIG(), 64, r); err != nil || idx != -1 {
			t.Fatalf("%d inputs: rewrite changed output %d (%v)", n, idx, err)
		}
		if p := NewProfile(g); p.Reduction <= 0 {
			t.Errorf("%d inputs: profile reduction %v, want > 0", n, p.Reduction)
		}
		s := ng.Stat()
		s.PIs = 0
		return s
	}
	if got, want := shrunk(17), shrunk(16); got != want || want.Ands+want.Xors >= 4 {
		t.Errorf("17 inputs rewrite to %v, 16 inputs to %v", got, want)
	}
}
