package synth

import (
	"fmt"
	"math/bits"

	"repro/internal/aig"
	"repro/internal/bdd"
	"repro/internal/sop"
	"repro/internal/tt"
)

// Recipe is a named synthesis strategy turning a multi-output truth-table
// specification into an AIG. The seven recipes mirror the paper's seven
// ABC/Espresso synthesis scripts: each follows a different decomposition
// paradigm and therefore yields a structurally different AIG for the same
// function.
type Recipe struct {
	Name        string
	Description string
	Build       func(spec []tt.TT) *aig.AIG
}

// Recipes returns the seven synthesis recipes in canonical order.
func Recipes() []Recipe {
	return []Recipe{
		{"sop", "two-level ISOP, balanced AND-OR trees", SynthSOP},
		{"esp", "espresso-minimized SOP, chained trees", SynthEspresso},
		{"fx", "minimized SOP with algebraic factoring", SynthFactored},
		{"bdd", "sifted ROBDD converted to a MUX tree", SynthBDD},
		{"shannon", "free-order Shannon decomposition", SynthShannon},
		{"dsd", "disjoint-support decomposition with Shannon fallback", SynthDSD},
		{"anf", "Reed-Muller XOR-of-ANDs (ANF) expansion", SynthANF},
	}
}

// RecipeNames lists the recipe names in canonical order.
func RecipeNames() []string {
	rs := Recipes()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}

// Synthesize runs the named recipe on the specification.
func Synthesize(name string, spec []tt.TT) (*aig.AIG, error) {
	for _, r := range Recipes() {
		if r.Name == name {
			return r.Build(spec), nil
		}
	}
	return nil, fmt.Errorf("synth: unknown recipe %q (have %v)", name, RecipeNames())
}

func checkSpec(spec []tt.TT) int {
	if len(spec) == 0 {
		panic("synth: empty specification")
	}
	n := spec[0].NumVars()
	for _, f := range spec[1:] {
		if f.NumVars() != n {
			panic("synth: outputs with differing input counts")
		}
	}
	return n
}

func inputLits(g *aig.AIG) []aig.Lit {
	lits := make([]aig.Lit, g.NumPIs())
	for i := range lits {
		lits[i] = g.PI(i)
	}
	return lits
}

// SynthSOP builds each output as a balanced OR of balanced cube ANDs from
// an irredundant SOP (no minimization beyond ISOP).
func SynthSOP(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	g := aig.New(n)
	in := inputLits(g)
	for _, f := range spec {
		g.AddPO(CoverLit(g, sop.FromTT(f), in, true))
	}
	return g.Cleanup()
}

// SynthEspresso builds each output from an espresso-minimized cover using
// chained (left-deep) trees, emphasizing two-level minimization.
func SynthEspresso(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	g := aig.New(n)
	in := inputLits(g)
	for _, f := range spec {
		g.AddPO(CoverLit(g, sop.MinimizeTT(f), in, false))
	}
	return g.Cleanup()
}

// SynthFactored minimizes each output and converts the kernel-factored
// form into an AIG, the multi-level "fast extract"-style recipe.
func SynthFactored(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	g := aig.New(n)
	in := inputLits(g)
	for _, f := range spec {
		expr := sop.Factor(sop.MinimizeTT(f))
		g.AddPO(ExprLit(g, expr, in))
	}
	return g.Cleanup()
}

// SynthBDD builds a shared ROBDD of all outputs under a sifted variable
// order and converts every BDD node into a 2:1 MUX, sharing nodes across
// outputs.
func SynthBDD(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	// Sift on the widest-support output; share the order across outputs.
	widest := 0
	for i, f := range spec {
		if f.SupportSize() > spec[widest].SupportSize() {
			widest = i
		}
	}
	order := bdd.SiftOrder(spec[widest], 2)
	perm := append([]int(nil), order...)

	m := bdd.NewManager(n)
	roots := make([]int32, len(spec))
	for i, f := range spec {
		roots[i] = m.FromTT(f.Permute(perm))
	}

	g := aig.New(n)
	memo := map[int32]aig.Lit{
		bdd.False: aig.LitFalse,
		bdd.True:  aig.LitTrue,
	}
	var conv func(node int32) aig.Lit
	conv = func(node int32) aig.Lit {
		if l, ok := memo[node]; ok {
			return l
		}
		// Manager level i tests original variable perm[i].
		sel := g.PI(perm[m.Level(node)])
		l := g.Mux(sel, conv(m.High(node)), conv(m.Low(node)))
		memo[node] = l
		return l
	}
	for _, r := range roots {
		g.AddPO(conv(r))
	}
	return g.Cleanup()
}

// SynthShannon decomposes every output by recursive Shannon expansion on
// the most binate variable, memoizing subfunctions across branches and
// outputs (a free-order BDD flavor).
func SynthShannon(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	g := aig.New(n)
	memo := make(map[string]aig.Lit)
	var rec func(f tt.TT) aig.Lit
	rec = func(f tt.TT) aig.Lit {
		if f.IsConst0() {
			return aig.LitFalse
		}
		if f.IsConst1() {
			return aig.LitTrue
		}
		key := f.Hex()
		if l, ok := memo[key]; ok {
			return l
		}
		v := mostBinateVar(f)
		l := g.Mux(g.PI(v), rec(f.Cofactor(v, true)), rec(f.Cofactor(v, false)))
		memo[key] = l
		return l
	}
	for _, f := range spec {
		g.AddPO(rec(f))
	}
	return g.Cleanup()
}

// SynthDSD peels disjoint single-variable decompositions (f = x op g)
// top-down and falls back to Shannon expansion when none applies,
// memoizing subfunctions.
func SynthDSD(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	g := aig.New(n)
	memo := make(map[string]aig.Lit)
	var rec func(f tt.TT) aig.Lit
	rec = func(f tt.TT) aig.Lit {
		if f.IsConst0() {
			return aig.LitFalse
		}
		if f.IsConst1() {
			return aig.LitTrue
		}
		key := f.Hex()
		if l, ok := memo[key]; ok {
			return l
		}
		var out aig.Lit
		if v, op, rest, ok := topDecomp(f); ok {
			x := g.PI(v)
			sub := rec(rest)
			switch op {
			case opAnd:
				out = g.And(x, sub)
			case opAndNot:
				out = g.And(x.Not(), sub)
			case opOr:
				out = g.Or(x, sub)
			case opOrNot:
				out = g.Or(x.Not(), sub)
			case opXor:
				out = g.Xor(x, sub)
			}
		} else {
			v := mostBinateVar(f)
			out = g.Mux(g.PI(v), rec(f.Cofactor(v, true)), rec(f.Cofactor(v, false)))
		}
		memo[key] = out
		return out
	}
	for _, f := range spec {
		g.AddPO(rec(f))
	}
	return g.Cleanup()
}

type decompOp int

const (
	opAnd decompOp = iota
	opAndNot
	opOr
	opOrNot
	opXor
)

// topDecomp checks whether some support variable x decomposes f as
// f = x AND g, !x AND g, x OR g, !x OR g, or x XOR g with g independent
// of x. It returns the variable, operator, and residual function.
func topDecomp(f tt.TT) (int, decompOp, tt.TT, bool) {
	for v := 0; v < f.NumVars(); v++ {
		if !f.HasVar(v) {
			continue
		}
		c0, c1 := f.Cofactor(v, false), f.Cofactor(v, true)
		switch {
		case c0.IsConst0():
			return v, opAnd, c1, true
		case c1.IsConst0():
			return v, opAndNot, c0, true
		case c1.IsConst1():
			return v, opOr, c0, true
		case c0.IsConst1():
			return v, opOrNot, c1, true
		case c0.Equal(c1.Not()):
			return v, opXor, c0, true
		}
	}
	return 0, 0, tt.TT{}, false
}

// SynthANF expands each output into its Reed-Muller (ANF) form — the
// XOR-heavy structure no SOP-based recipe produces — when that form is
// competitive in size, and otherwise falls back to a 4-LUT-cascade
// decomposition (the "LUT bidecomposition" flavor of the paper's seventh
// script). The guard matters: a random n-input function has ~2^(n-1)
// monomials, and feeding such pathological outliers to the diversity
// study would let raw size differences drown every structural signal.
func SynthANF(spec []tt.TT) *aig.AIG {
	n := checkSpec(spec)
	g := aig.New(n)
	in := inputLits(g)
	memo := make(map[string]aig.Lit)
	for _, f := range spec {
		monomials := f.ANF()
		outFlip := false
		if alt := f.Not().ANF(); len(alt) < len(monomials) {
			monomials, outFlip = alt, true
		}
		// Estimated AIG cost of the XOR expansion vs the factored form.
		anfCost := 0
		for _, m := range monomials {
			if lits := bits.OnesCount32(m); lits > 1 {
				anfCost += lits - 1
			}
		}
		if len(monomials) > 1 {
			anfCost += 3 * (len(monomials) - 1)
		}
		expr := sop.Factor(sop.MinimizeTT(f))
		if anfCost <= 2*expr.NumLits()+8 {
			g.AddPO(buildANF(g, in, monomials).NotCond(outFlip))
			continue
		}
		g.AddPO(lutCascade(g, f, memo))
	}
	return g.Cleanup()
}

// lutCascade decomposes f two variables at a time: the two most binate
// variables select among four cofactors through a 4:1 MUX cell (one
// 4-LUT), recursively — a LUT-cascade structure distinct from both the
// per-variable Shannon recipe and the globally ordered BDD recipe.
func lutCascade(g *aig.AIG, f tt.TT, memo map[string]aig.Lit) aig.Lit {
	if f.IsConst0() {
		return aig.LitFalse
	}
	if f.IsConst1() {
		return aig.LitTrue
	}
	key := f.Hex()
	if l, ok := memo[key]; ok {
		return l
	}
	sup := f.Support()
	var out aig.Lit
	if len(sup) <= 2 {
		expr := sop.Factor(sop.MinimizeTT(f))
		out = ExprLit(g, expr, inputLits(g))
	} else {
		v1 := mostBinateVar(f)
		f0, f1 := f.Cofactor(v1, false), f.Cofactor(v1, true)
		v2 := mostBinateVar(f0.Xor(f1).Or(f0)) // second selector from the residue
		if v2 == v1 || v2 < 0 {
			v2 = mostBinateVar(f1)
		}
		if v2 == v1 || v2 < 0 {
			for _, s := range sup {
				if s != v1 {
					v2 = s
					break
				}
			}
		}
		c00 := lutCascade(g, f0.Cofactor(v2, false), memo)
		c01 := lutCascade(g, f0.Cofactor(v2, true), memo)
		c10 := lutCascade(g, f1.Cofactor(v2, false), memo)
		c11 := lutCascade(g, f1.Cofactor(v2, true), memo)
		x1, x2 := g.PI(v1), g.PI(v2)
		out = g.Mux(x2, g.Mux(x1, c11, c01), g.Mux(x1, c10, c00))
	}
	memo[key] = out
	return out
}

func buildANF(g *aig.AIG, in []aig.Lit, monomials []uint32) aig.Lit {
	terms := make([]aig.Lit, 0, len(monomials))
	for _, m := range monomials {
		var lits []aig.Lit
		for v := 0; v < len(in); v++ {
			if m>>uint(v)&1 == 1 {
				lits = append(lits, in[v])
			}
		}
		terms = append(terms, BalancedAnd(g, lits))
	}
	return BalancedXor(g, terms)
}
