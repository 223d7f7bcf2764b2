package aig

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tt"
)

func TestLitBasics(t *testing.T) {
	l := MakeLit(5, true)
	if l.Node() != 5 || !l.IsCompl() {
		t.Errorf("MakeLit(5,true) = %v", l)
	}
	if l.Not().IsCompl() {
		t.Error("Not should clear complement")
	}
	if l.Regular() != MakeLit(5, false) {
		t.Error("Regular wrong")
	}
	if l.NotCond(false) != l || l.NotCond(true) != l.Not() {
		t.Error("NotCond wrong")
	}
	if LitFalse.Not() != LitTrue {
		t.Error("const literals wrong")
	}
	if l.String() != "!5" || l.Not().String() != "5" {
		t.Errorf("String: %q %q", l.String(), l.Not().String())
	}
}

func TestAndFolding(t *testing.T) {
	g := New(2)
	a, b := g.PI(0), g.PI(1)
	cases := []struct {
		x, y, want Lit
	}{
		{LitFalse, a, LitFalse},
		{a, LitFalse, LitFalse},
		{LitTrue, a, a},
		{b, LitTrue, b},
		{a, a, a},
		{a, a.Not(), LitFalse},
	}
	for _, c := range cases {
		if got := g.And(c.x, c.y); got != c.want {
			t.Errorf("And(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if g.NumAnds() != 0 {
		t.Errorf("folding created %d nodes", g.NumAnds())
	}
}

func TestStructuralHashing(t *testing.T) {
	g := New(2)
	a, b := g.PI(0), g.PI(1)
	n1 := g.And(a, b)
	n2 := g.And(b, a)
	if n1 != n2 {
		t.Error("commuted AND not shared")
	}
	n3 := g.And(a.Not(), b)
	if n3 == n1 {
		t.Error("different polarity wrongly shared")
	}
	if g.NumAnds() != 2 {
		t.Errorf("NumAnds = %d, want 2", g.NumAnds())
	}
	if l, ok := g.Lookup(b, a); !ok || l != n1 {
		t.Error("Lookup failed on existing node")
	}
	if _, ok := g.Lookup(a.Not(), b.Not()); ok {
		t.Error("Lookup invented a node")
	}
	if l, ok := g.Lookup(a, LitTrue); !ok || l != a {
		t.Error("Lookup should fold constants")
	}
}

func TestFullAdderFigure1(t *testing.T) {
	// The paper's Figure 1: a full adder has a 7-AND implementation with
	// shared logic between carry (maj3) and sum (xor3).
	g := New(3)
	x1, x2, x3 := g.PI(0), g.PI(1), g.PI(2)
	// carry = maj3; sum = xor3 sharing the half-sum structure:
	axb := g.Xor(x1, x2)                         // 3 nodes
	sum := g.Xor(axb, x3)                        // 3 more nodes
	carry := g.Or(g.And(x1, x2), g.And(axb, x3)) // 3 more, one shared
	g.AddPO(carry)
	g.AddPO(sum)
	if g.NumAnds() > 9 {
		t.Errorf("full adder uses %d ANDs", g.NumAnds())
	}
	outs := g.OutputTTs()
	maj := tt.Var(0, 3).And(tt.Var(1, 3)).Or(tt.Var(0, 3).And(tt.Var(2, 3))).Or(tt.Var(1, 3).And(tt.Var(2, 3)))
	xor3 := tt.Var(0, 3).Xor(tt.Var(1, 3)).Xor(tt.Var(2, 3))
	if !outs[0].Equal(maj) {
		t.Error("carry output is not maj3")
	}
	if !outs[1].Equal(xor3) {
		t.Error("sum output is not xor3")
	}
}

func TestGateOps(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	g.AddPO(g.Or(a, b))
	g.AddPO(g.Xor(a, b))
	g.AddPO(g.Mux(a, b, c))
	g.AddPO(g.Maj3(a, b, c))
	outs := g.OutputTTs()
	va, vb, vc := tt.Var(0, 3), tt.Var(1, 3), tt.Var(2, 3)
	if !outs[0].Equal(va.Or(vb)) {
		t.Error("Or wrong")
	}
	if !outs[1].Equal(va.Xor(vb)) {
		t.Error("Xor wrong")
	}
	if !outs[2].Equal(va.And(vb).Or(va.Not().And(vc))) {
		t.Error("Mux wrong")
	}
	maj := va.And(vb).Or(va.And(vc)).Or(vb.And(vc))
	if !outs[3].Equal(maj) {
		t.Error("Maj3 wrong")
	}
}

func TestMuxSpecialCases(t *testing.T) {
	g := New(3)
	a, b := g.PI(0), g.PI(1)
	if g.Mux(a, b, b) != b {
		t.Error("Mux(s,t,t) should fold to t")
	}
	x := g.Mux(a, b.Not(), b)
	want := g.Xor(a, b)
	if x != want {
		t.Error("Mux(s,!t,t) should be XOR")
	}
}

func TestLevels(t *testing.T) {
	g := New(4)
	n1 := g.And(g.PI(0), g.PI(1))
	n2 := g.And(g.PI(2), g.PI(3))
	n3 := g.And(n1, n2)
	g.AddPO(n3)
	if g.Level(n1.Node()) != 1 || g.Level(n2.Node()) != 1 || g.Level(n3.Node()) != 2 {
		t.Error("levels wrong")
	}
	if g.NumLevels() != 2 {
		t.Errorf("NumLevels = %d, want 2", g.NumLevels())
	}
	chain := g.PI(0)
	for i := 1; i < 4; i++ {
		chain = g.And(chain, g.PI(i))
	}
	g.AddPO(chain)
	if g.NumLevels() != 3 {
		t.Errorf("chain NumLevels = %d, want 3", g.NumLevels())
	}
}

func TestRefCountsAndMFFC(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	ab := g.And(a, b)
	abc := g.And(ab, c)
	g.AddPO(abc)
	refs := g.RefCounts()
	if refs[ab.Node()] != 1 || refs[abc.Node()] != 1 {
		t.Errorf("refs = %v", refs)
	}
	// MFFC of abc includes ab (single fanout).
	if got := g.MFFCSize(abc.Node(), refs); got != 2 {
		t.Errorf("MFFC(abc) = %d, want 2", got)
	}
	// refs must be restored.
	refs2 := g.RefCounts()
	for i := range refs {
		if refs[i] != refs2[i] {
			t.Fatal("MFFCSize corrupted ref counts")
		}
	}
	// Give ab another fanout; MFFC of abc shrinks to 1.
	g.AddPO(ab)
	refs = g.RefCounts()
	if got := g.MFFCSize(abc.Node(), refs); got != 1 {
		t.Errorf("MFFC(abc) with shared ab = %d, want 1", got)
	}
}

func TestMFFCBounded(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	ab := g.And(a, b)
	bc := g.And(b, c)
	top := g.And(ab, bc)
	g.AddPO(top)
	refs := g.RefCounts()
	before := append([]int(nil), refs...)
	if got, want := g.MFFC(top.Node(), refs, nil, nil), []int{top.Node(), ab.Node(), bc.Node()}; !slices.Equal(got, want) {
		t.Errorf("MFFC(top) = %v, want %v", got, want)
	}
	// A boundary node stays alive: the cut {ab, c, b} keeps ab.
	if got, want := g.MFFC(top.Node(), refs, []int{ab.Node(), b.Node(), c.Node()}, nil), []int{top.Node(), bc.Node()}; !slices.Equal(got, want) {
		t.Errorf("MFFC(top) bounded at ab = %v, want %v", got, want)
	}
	if g.MFFC(a.Node(), refs, nil, nil) != nil {
		t.Error("MFFC of a PI must be empty")
	}
	if !slices.Equal(refs, before) {
		t.Fatal("MFFC corrupted ref counts")
	}
}

func TestCleanupRemovesDangling(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	used := g.And(a, b)
	g.And(b, c) // dangling
	g.And(a, c) // dangling
	g.AddPO(used)
	if g.NumAnds() != 3 {
		t.Fatalf("setup: NumAnds = %d", g.NumAnds())
	}
	ng := g.Cleanup()
	if ng.NumAnds() != 1 {
		t.Errorf("after Cleanup NumAnds = %d, want 1", ng.NumAnds())
	}
	if idx, err := Equivalent(g, ng); err != nil || idx != -1 {
		t.Errorf("Cleanup changed function: idx=%d err=%v", idx, err)
	}
	if err := ng.Check(); err != nil {
		t.Errorf("Check after Cleanup: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	h := g.Clone()
	h.AddPO(h.Or(h.PI(0), h.PI(1)))
	if g.NumPOs() != 1 || h.NumPOs() != 2 {
		t.Error("Clone not independent")
	}
	if idx, _ := Equivalent(g, g.Clone()); idx != -1 {
		t.Error("Clone not equivalent")
	}
}

func TestCheckDetectsNothingOnValid(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := randomAIG(5, 40, r)
	if err := g.Check(); err != nil {
		t.Errorf("Check on valid AIG: %v", err)
	}
}

// randomAIG builds a random strashed AIG for tests.
func randomAIG(pis, ands int, r *rand.Rand) *AIG {
	g := New(pis)
	lits := make([]Lit, 0, pis+ands)
	for i := 0; i < pis; i++ {
		lits = append(lits, g.PI(i))
	}
	for len(lits) < pis+ands {
		a := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 1)
		b := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 1)
		l := g.And(a, b)
		if l.Node() > pis && int(l.Node()) >= len(lits)-ands { // count only fresh nodes loosely
			lits = append(lits, l)
		} else {
			lits = append(lits, l) // folded or shared: still usable as input
		}
	}
	g.AddPO(lits[len(lits)-1])
	g.AddPO(lits[len(lits)-2].Not())
	return g
}

func TestSimVectorMatchesSimAll(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	g := randomAIG(6, 60, r)
	tabs := g.SimAll()
	// Pattern k: PI i gets bit i of minterm index; compare 64 minterms.
	pat := make([]uint64, 6)
	for i := range pat {
		pat[i] = tt.Var(i, 6).Word(0)
	}
	vals := g.SimVector(pat)
	for id := 0; id < g.NumObjs(); id++ {
		if vals[id] != tabs[id].Word(0) {
			t.Fatalf("node %d: SimVector %x != SimAll %x", id, vals[id], tabs[id].Word(0))
		}
	}
}

func TestEval(t *testing.T) {
	g := New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	g.AddPO(g.Xor(g.PI(0), g.PI(1)))
	for m := 0; m < 4; m++ {
		out := g.Eval(uint64(m))
		a, b := m&1 == 1, m>>1&1 == 1
		if out[0] != (a && b) || out[1] != (a != b) {
			t.Errorf("Eval(%d) = %v", m, out)
		}
	}
}

func TestRandomSimCheck(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	g := randomAIG(8, 100, r)
	h := g.Cleanup()
	if idx, err := RandomSimCheck(g, h, 4, r); err != nil || idx != -1 {
		t.Errorf("equivalent AIGs flagged: idx=%d err=%v", idx, err)
	}
	// Break one output.
	h2 := g.Clone()
	h2.SetPO(0, h2.PO(0).Not())
	if idx, _ := RandomSimCheck(g, h2, 4, r); idx != 0 {
		t.Errorf("broken output not detected: idx=%d", idx)
	}
}

func TestEquivalentDetectsMismatch(t *testing.T) {
	g := New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	h := New(2)
	h.AddPO(h.Or(h.PI(0), h.PI(1)))
	idx, err := Equivalent(g, h)
	if err != nil || idx != 0 {
		t.Errorf("idx=%d err=%v", idx, err)
	}
	h3 := New(3)
	h3.AddPO(h3.PI(0))
	if _, err := Equivalent(g, h3); err == nil {
		t.Error("PI mismatch should error")
	}
}

// TestEquivalentRefusesTooManyInputs: beyond tt.MaxVars inputs
// exhaustive simulation is out of reach, so Equivalent must return an
// error rather than panic inside SimAll.
func TestEquivalentRefusesTooManyInputs(t *testing.T) {
	n := tt.MaxVars + 1
	g := New(n)
	out := g.PI(0)
	for i := 1; i < n; i++ {
		out = g.And(out, g.PI(i))
	}
	g.AddPO(out)
	if _, err := Equivalent(g, g.Clone()); err == nil {
		t.Errorf("Equivalent on %d-input AIGs returned no error", n)
	}
}

func TestCutTT(t *testing.T) {
	g := New(4)
	n1 := g.And(g.PI(0), g.PI(1))
	n2 := g.Or(n1, g.PI(2))
	g.AddPO(n2)
	// CutTT computes the function of the *node*; n2 is a complemented
	// literal (Or builds NAND of complements), so flip accordingly.
	leaves := []int{g.PI(0).Node(), g.PI(1).Node(), g.PI(2).Node()}
	f := g.CutTT(n2.Node(), leaves)
	if n2.IsCompl() {
		f = f.Not()
	}
	want := tt.Var(0, 3).And(tt.Var(1, 3)).Or(tt.Var(2, 3))
	if !f.Equal(want) {
		t.Error("CutTT wrong")
	}
	// Cut at an internal node.
	f2 := g.CutTT(n2.Node(), []int{n1.Node(), g.PI(2).Node()})
	if n2.IsCompl() {
		f2 = f2.Not()
	}
	want2 := tt.Var(0, 2).Or(tt.Var(1, 2))
	if !f2.Equal(want2) {
		t.Error("CutTT at internal leaf wrong")
	}
}
