package opt

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// redundantAIG builds an AIG with deliberate structural waste: a naive
// SOP-of-minterms realization that every optimizer should shrink.
func redundantAIG(f tt.TT) *aig.AIG {
	n := f.NumVars()
	g := aig.New(n)
	out := aig.LitFalse
	for m := 0; m < f.NumBits(); m++ {
		if !f.Bit(m) {
			continue
		}
		term := aig.LitTrue
		for v := 0; v < n; v++ {
			term = g.And(term, g.PI(v).NotCond(m>>uint(v)&1 == 0))
		}
		out = g.Or(out, term)
	}
	g.AddPO(out)
	return g.Cleanup()
}

func mustEquiv(t *testing.T, name string, a, b *aig.AIG) {
	t.Helper()
	idx, err := aig.Equivalent(a, b)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if idx != -1 {
		t.Fatalf("%s: output %d changed function", name, idx)
	}
}

func TestPassesPreserveEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		n := 4 + trial%3
		spec := []tt.TT{tt.Random(n, r), tt.Random(n, r)}
		for _, rec := range synth.Recipes() {
			g := rec.Build(spec)
			for _, p := range Passes() {
				ng := p.Apply(g)
				mustEquiv(t, rec.Name+"/"+p.Atom, g, ng)
				if err := ng.Check(); err != nil {
					t.Fatalf("%s/%s: %v", rec.Name, p.Atom, err)
				}
			}
		}
	}
}

func TestPassesNeverGrow(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for trial := 0; trial < 10; trial++ {
		n := 4 + trial%4
		g := redundantAIG(tt.Random(n, r))
		for _, p := range Passes() {
			if p.Span == "opt/balance" || p.Span == "opt/lutmap" {
				continue // balance optimizes depth, a LUT round trip reshapes freely
			}
			ng := p.Apply(g)
			if ng.NumAnds() > g.NumAnds() {
				t.Errorf("trial %d: %s grew %d -> %d", trial, p.Atom, g.NumAnds(), ng.NumAnds())
			}
		}
	}
}

func TestRewriteShrinksRedundant(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	f := tt.Random(5, r)
	g := redundantAIG(f)
	ng := RewriteOnce(g, RewriteOptions{})
	mustEquiv(t, "rewrite", g, ng)
	if ng.NumAnds() >= g.NumAnds() {
		t.Errorf("rewrite failed to shrink minterm SOP: %d -> %d", g.NumAnds(), ng.NumAnds())
	}
}

func TestRefactorShrinksRedundant(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	f := tt.Random(6, r)
	g := redundantAIG(f)
	ng := RefactorOnce(g, RefactorOptions{})
	mustEquiv(t, "refactor", g, ng)
	if ng.NumAnds() >= g.NumAnds() {
		t.Errorf("refactor failed to shrink: %d -> %d", g.NumAnds(), ng.NumAnds())
	}
}

func TestResubFindsSharing(t *testing.T) {
	// Build g with an explicit duplicated function: two separately built
	// copies of the same subfunction feeding different outputs. The
	// duplicate must be 0-resubbed away.
	g := aig.New(4)
	a, b, c, d := g.PI(0), g.PI(1), g.PI(2), g.PI(3)
	// First copy: (a&b)|c built directly.
	x1 := g.Or(g.And(a, b), c)
	// Second copy: the distributed form (a|c)&(b|c) — structurally
	// disjoint from the first, functionally identical.
	x2 := g.And(g.Or(a, c), g.Or(b, c))
	g.AddPO(g.And(x1, d))
	g.AddPO(g.And(x2, d.Not()))
	ng := ResubOnce(g, ResubOptions{})
	mustEquiv(t, "resub", g, ng)
	if ng.NumAnds() >= g.NumAnds() {
		t.Errorf("resub failed to merge functional duplicates: %d -> %d", g.NumAnds(), ng.NumAnds())
	}
}

func TestResubOneGate(t *testing.T) {
	// out = a&b&c; with divisors a&b and c present, out = AND(ab, c)
	// exists structurally — but build out redundantly via minterms.
	n := 3
	f := tt.Var(0, n).And(tt.Var(1, n)).And(tt.Var(2, n))
	g := redundantAIG(f)
	ng := ResubOnce(g, ResubOptions{})
	mustEquiv(t, "resub", g, ng)
	if ng.NumAnds() > 2 {
		t.Errorf("AND3 should collapse to 2 nodes, got %d", ng.NumAnds())
	}
}

func TestResubSkipsLargeInputs(t *testing.T) {
	g := aig.New(tt.MaxVars + 1)
	l := g.PI(0)
	for i := 1; i <= tt.MaxVars; i++ {
		l = g.And(l, g.PI(i))
	}
	g.AddPO(l)
	ng := ResubOnce(g, ResubOptions{})
	if ng != g {
		t.Error("resub on >MaxVars inputs should be the identity")
	}
}

func TestBalanceReducesDepth(t *testing.T) {
	g := aig.New(8)
	chain := g.PI(0)
	for i := 1; i < 8; i++ {
		chain = g.And(chain, g.PI(i))
	}
	g.AddPO(chain)
	ng := Balance(g)
	mustEquiv(t, "balance", g, ng)
	if ng.NumLevels() != 3 {
		t.Errorf("balanced AND8 depth = %d, want 3", ng.NumLevels())
	}
	if ng.NumAnds() != 7 {
		t.Errorf("balanced AND8 size = %d, want 7", ng.NumAnds())
	}
}

func TestBalancePreservesShared(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	for trial := 0; trial < 10; trial++ {
		spec := []tt.TT{tt.Random(5, r), tt.Random(5, r)}
		g := synth.SynthSOP(spec)
		ng := Balance(g)
		mustEquiv(t, "balance", g, ng)
		if err := ng.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlowsCorrectAndEffective(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	f := tt.Random(5, r)
	g := redundantAIG(f)
	for _, flow := range Flows() {
		ng := flow.RunCtx(context.Background(), g, 7)
		mustEquiv(t, flow.Name, g, ng)
		if ng.NumAnds() >= g.NumAnds() {
			t.Errorf("%s failed to reduce a minterm SOP: %d -> %d", flow.Name, g.NumAnds(), ng.NumAnds())
		}
	}
}

func TestRunFlowDispatch(t *testing.T) {
	g := aig.New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	f, err := FlowByName("dc2")
	if err != nil {
		t.Fatal(err)
	}
	mustEquiv(t, f.Name, g, f.RunCtx(context.Background(), g, 0))
	if _, err := FlowByName("bogus"); err == nil || !strings.Contains(err.Error(), `unknown flow "bogus" (have [orchestrate dc2 deepsyn])`) {
		t.Errorf("unknown flow error = %v", err)
	}
}

func TestPassByAtom(t *testing.T) {
	for _, want := range Passes() {
		p, err := PassByAtom(want.Atom)
		if err != nil || p.Atom != want.Atom || p.Span != want.Span {
			t.Errorf("PassByAtom(%q) = %+v, %v", want.Atom, p, err)
		}
	}
	if _, err := PassByAtom("dc2"); err == nil || !strings.Contains(err.Error(), `unknown pass "dc2" (have [b rw rwz rf rfz rs rsz lut4 lut6])`) {
		t.Errorf("unknown pass error = %v", err)
	}
}

func TestDeepSynDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := redundantAIG(tt.Random(5, r))
	a := DeepSyn(context.Background(), g, DeepSynOptions{Effort: 4, Seed: 42})
	b := DeepSyn(context.Background(), g, DeepSynOptions{Effort: 4, Seed: 42})
	if a.NumAnds() != b.NumAnds() {
		t.Error("DeepSyn not deterministic for fixed seed")
	}
	mustEquiv(t, "deepsyn", g, a)
}

func TestOrchestrateConverges(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	g := redundantAIG(tt.Random(4, r))
	ng := Orchestrate(context.Background(), g, 50)
	mustEquiv(t, "orchestrate", g, ng)
	// Running it again should make no further progress.
	ng2 := Orchestrate(context.Background(), ng, 50)
	if ng2.NumAnds() < ng.NumAnds()-1 {
		t.Errorf("orchestrate left significant gains: %d -> %d", ng.NumAnds(), ng2.NumAnds())
	}
}

func TestFlowsOnMultiOutput(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	spec := []tt.TT{tt.Random(6, r), tt.Random(6, r), tt.Random(6, r)}
	g := synth.SynthSOP(spec)
	for _, flow := range Flows() {
		ng := flow.RunCtx(context.Background(), g, 3)
		mustEquiv(t, flow.Name, g, ng)
	}
}

func TestCompressToConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	g := redundantAIG(tt.Random(5, r))
	ng := CompressToConvergence(context.Background(), g)
	mustEquiv(t, "compress", g, ng)
	if ng.NumAnds() > g.NumAnds() {
		t.Error("compress grew the graph")
	}
}

func TestConstantOutputsCollapse(t *testing.T) {
	// An AIG computing a tautology in a convoluted way must collapse.
	g := aig.New(3)
	a, b := g.PI(0), g.PI(1)
	x := g.Or(g.And(a, b), g.And(a, b.Not()))
	y := g.Or(x, a.Not()) // == a | !a == 1? No: x == a, so y == a | !a == 1.
	g.AddPO(y)
	for _, p := range Passes() {
		mustEquiv(t, p.Atom, g, p.Apply(g))
	}
	ng := CompressToConvergence(context.Background(), g)
	if ng.NumAnds() != 0 {
		t.Errorf("tautology not collapsed: %d nodes remain", ng.NumAnds())
	}
}

func TestDecisionRebuildDirect(t *testing.T) {
	// White-box: replacing a node through rebuild by a structure over
	// other nodes keeps the node's function: the rebuilt output's table
	// must equal the replaced node's.
	g := aig.New(4)
	a, b, c, d := g.PI(0), g.PI(1), g.PI(2), g.PI(3)
	ab := g.And(a, b)
	and3 := g.And(ab, c)
	// Plain AND nodes computing a OR !b OR c (as or & (or | d)) and
	// ab XOR c (as (ab | c) & !(ab & c)).
	or := g.Or(g.Or(a, b.Not()), c)
	or3 := g.And(or, g.Or(or, d))
	xor := g.And(g.Or(ab, c), g.And(ab, c).Not())
	// AND3 from a mini built here, over the PIs directly.
	mini := aig.New(3)
	mini.AddPO(mini.And(mini.And(mini.PI(0), mini.PI(1)), mini.PI(2)))
	if or3.IsCompl() || xor.IsCompl() {
		t.Fatal("setup: the replaced nodes must be read plain")
	}
	for _, tc := range []struct {
		name string
		node aig.Lit
		dec  decision
	}{
		{"and3", and3, decision{mini: mini, leaves: []int{a.Node(), b.Node(), c.Node()}}},
		{"or3 with a complemented divisor", or3, gateDecision(or3Shape, b.Not(), a, c)},
		{"xor", xor, gateDecision(xorShape, ab, c)},
	} {
		h := g.Clone()
		h.AddPO(tc.node)
		ng := rebuild(h, map[int]decision{tc.node.Node(): tc.dec})
		mustEquiv(t, tc.name, h, ng)
		if got, want := ng.OutputTTs()[0], h.SimAll()[tc.node.Node()]; !got.Equal(want) {
			t.Errorf("%s: rebuilt output %v, replaced node %v", tc.name, got, want)
		}
	}
}

func TestFlowsHonorCancellation(t *testing.T) {
	// A context cancelled before the first convergence round must make
	// every flow return immediately with an AIG equivalent to its input
	// (the degenerate "best so far": the input itself).
	r := rand.New(rand.NewSource(101))
	g := redundantAIG(tt.Random(5, r))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, flow := range Flows() {
		ng := flow.RunCtx(ctx, g, 7)
		mustEquiv(t, flow.Name+" (cancelled)", g, ng)
		if ng.NumAnds() != g.NumAnds() {
			t.Errorf("%s did optimization work under a cancelled context", flow.Name)
		}
	}
	if ng := CompressToConvergence(ctx, g); ng != g {
		t.Error("compress did optimization work under a cancelled context")
	}
}
