package mig

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
	"repro/internal/workload"
)

func TestMajAxioms(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	if g.Maj(a, a, b) != a || g.Maj(b, a, a) != a || g.Maj(a, b, a) != a {
		t.Error("duplicate absorption broken")
	}
	if g.Maj(a, a.Not(), c) != c || g.Maj(a, c, a.Not()) != c || g.Maj(c, a, a.Not()) != c {
		t.Error("complement absorption broken")
	}
	if g.NumGates() != 0 {
		t.Errorf("axioms created %d gates", g.NumGates())
	}
	// Self-duality: M(!a,!b,!c) == !M(a,b,c), shared structurally.
	m1 := g.Maj(a, b, c)
	m2 := g.Maj(a.Not(), b.Not(), c.Not())
	if m2 != m1.Not() {
		t.Error("self-duality normalization broken")
	}
	if g.NumGates() != 1 {
		t.Errorf("dual variants created %d gates, want 1", g.NumGates())
	}
	if err := g.Check(); err != nil {
		t.Error(err)
	}
}

func TestMajFunction(t *testing.T) {
	g := New(3)
	g.AddPO(g.Maj(g.PI(0), g.PI(1), g.PI(2)))
	want := workload.Threshold(3, 2)
	if !g.OutputTTs()[0].Equal(want) {
		t.Error("Maj3 function wrong")
	}
}

func TestDerivedGates(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	g.AddPO(g.And(a, b))
	g.AddPO(g.Or(a, b))
	g.AddPO(g.Xor(a, b))
	g.AddPO(g.Mux(a, b, c))
	outs := g.OutputTTs()
	va, vb, vc := tt.Var(0, 3), tt.Var(1, 3), tt.Var(2, 3)
	if !outs[0].Equal(va.And(vb)) || !outs[1].Equal(va.Or(vb)) {
		t.Error("And/Or wrong")
	}
	if !outs[2].Equal(va.Xor(vb)) {
		t.Error("Xor wrong")
	}
	if !outs[3].Equal(va.And(vb).Or(va.Not().And(vc))) {
		t.Error("Mux wrong")
	}
}

func TestConversionRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(191))
	for trial := 0; trial < 10; trial++ {
		n := 4 + trial%3
		spec := []tt.TT{tt.Random(n, r), tt.Random(n, r)}
		a := synth.SynthFactored(spec)
		m := FromAIG(a)
		back := m.ToAIG()
		if idx, err := aig.Equivalent(a, back); err != nil || idx != -1 {
			t.Fatalf("trial %d: AIG->MIG->AIG broke output %d (%v)", trial, idx, err)
		}
		if err := m.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecipesCorrectAndDiverse(t *testing.T) {
	r := rand.New(rand.NewSource(192))
	for trial := 0; trial < 6; trial++ {
		n := 4 + trial%3
		spec := []tt.TT{tt.Random(n, r)}
		sizes := map[int]bool{}
		for _, rec := range Recipes() {
			g := rec.Build(spec)
			if !g.OutputTTs()[0].Equal(spec[0]) {
				t.Fatalf("trial %d %s: wrong function", trial, rec.Name)
			}
			if err := g.Check(); err != nil {
				t.Fatalf("%s: %v", rec.Name, err)
			}
			sizes[g.NumGates()] = true
		}
		if len(sizes) < 2 {
			t.Errorf("trial %d: MIG recipes produced no diversity", trial)
		}
	}
	if _, err := Synthesize("shannon", []tt.TT{tt.Var(0, 2)}); err != nil {
		t.Error(err)
	}
	if _, err := Synthesize("nope", []tt.TT{tt.Var(0, 2)}); err == nil {
		t.Error("unknown recipe should error")
	}
}

func TestMajorityDetection(t *testing.T) {
	// Majority-of-three must synthesize to exactly one gate via shannon.
	g := SynthShannon([]tt.TT{workload.Threshold(3, 2)})
	if g.NumGates() != 1 {
		t.Errorf("maj3 synthesized to %d gates, want 1", g.NumGates())
	}
	// Median-of-five (threshold 3 of 5) should benefit from majority
	// detection as the recursion bottoms out.
	g5 := SynthShannon([]tt.TT{workload.Threshold(5, 3)})
	if !g5.OutputTTs()[0].Equal(workload.Threshold(5, 3)) {
		t.Error("median5 wrong")
	}
	// Shannon reaches majority leaves only at 3-var residues: two MUX
	// levels (3 gates each) over AND3/MAJ3/OR3 leaves — about 16 gates.
	// Anything far beyond that means detection never fired.
	if g5.NumGates() > 20 {
		t.Errorf("median5 uses %d gates; majority detection ineffective", g5.NumGates())
	}
}

func TestRewritePreservesAndShrinks(t *testing.T) {
	r := rand.New(rand.NewSource(193))
	for trial := 0; trial < 6; trial++ {
		n := 5 + trial%2
		f := tt.Random(n, r)
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

func TestRewriteFindsMajority(t *testing.T) {
	// Median-of-five from the factored SOP form must shrink toward the
	// majority structure.
	f := workload.Threshold(5, 3)
	g := SynthFactored([]tt.TT{f})
	ng := Rewrite(g)
	if ng.NumGates() >= g.NumGates() {
		t.Errorf("rewrite failed on median5: %d -> %d", g.NumGates(), ng.NumGates())
	}
	if !ng.OutputTTs()[0].Equal(f) {
		t.Error("rewrite changed function")
	}
}

func TestDiversityScores(t *testing.T) {
	spec := []tt.TT{workload.Threshold(5, 3)}
	pa := NewProfile(SynthShannon(spec))
	pb := NewProfile(SynthFactored(spec))
	if RGC(pa, pa) != 0 || RLC(pa, pa) != 0 || RewriteScore(pa, pa) != 0 {
		t.Error("identity scores nonzero")
	}
	if RGC(pa, pb) <= 0 {
		t.Error("shannon vs factored median5 should differ in gates")
	}
	for _, v := range []float64{RGC(pa, pb), RLC(pa, pb)} {
		if v < 0 || v > 1 {
			t.Errorf("score out of range: %f", v)
		}
	}
}

func TestCleanup(t *testing.T) {
	g := New(3)
	a, b := g.PI(0), g.PI(1)
	used := g.And(a, b)
	g.Or(a, g.PI(2)) // dangling
	g.AddPO(used)
	ng := g.Cleanup()
	if ng.NumGates() != 1 {
		t.Errorf("Cleanup left %d gates", ng.NumGates())
	}
	if err := ng.Check(); err != nil {
		t.Error(err)
	}
}

func TestStatString(t *testing.T) {
	g := New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	if g.Stat().String() == "" {
		t.Error("empty stat string")
	}
}

// TestRewriteAbove16Inputs rewrites a 17-input graph: cuts hold at most
// 8 leaves, so the pass must shrink it exactly as it shrinks the same
// logic over 16 inputs. Exhaustive simulation stops at 16 inputs, so the
// result is checked against its source by random simulation.
func TestRewriteAbove16Inputs(t *testing.T) {
	shrunk := func(n int) Stats {
		g := New(n)
		a, b, c := g.PI(0), g.PI(1), g.PI(2)
		m := g.Or(g.Or(g.And(a, b), g.And(a, c)), g.And(b, c)) // MAJ as AND/OR
		g.AddPO(g.And(m, g.PI(n-1)))
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
	if got, want := shrunk(17), shrunk(16); got != want || want.Gates >= 6 {
		t.Errorf("17 inputs rewrite to %v, 16 inputs to %v", got, want)
	}
}
