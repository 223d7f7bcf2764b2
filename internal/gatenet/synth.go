package gatenet

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/bdd"
	"repro/internal/sop"
	"repro/internal/tt"
)

// Gates is the AND/OR gate set an expression is built from.
type Gates interface {
	And(a, b aig.Lit) aig.Lit
	Or(a, b aig.Lit) aig.Lit
}

// BuildExpr builds the factored expression e over the leaf literals,
// chaining each AND and OR left to right.
func BuildExpr(g Gates, e *sop.Expr, leaves []aig.Lit) aig.Lit {
	switch e.Kind {
	case sop.ExprConst0:
		return aig.LitFalse
	case sop.ExprConst1:
		return aig.LitTrue
	case sop.ExprLit:
		return leaves[e.Var].NotCond(!e.Pos)
	case sop.ExprAnd:
		out := aig.LitTrue
		for _, a := range e.Args {
			out = g.And(out, BuildExpr(g, a, leaves))
		}
		return out
	case sop.ExprOr:
		out := aig.LitFalse
		for _, a := range e.Args {
			out = g.Or(out, BuildExpr(g, a, leaves))
		}
		return out
	}
	panic("gatenet: bad expression")
}

// BalancedXor builds a minimum-depth XOR tree over the literals with g's
// own XOR.
func BalancedXor(g interface{ Xor(a, b aig.Lit) aig.Lit }, lits []aig.Lit) aig.Lit {
	if len(lits) == 0 {
		return aig.LitFalse
	}
	for len(lits) > 1 {
		next := make([]aig.Lit, 0, (len(lits)+1)/2)
		for i := 0; i+1 < len(lits); i += 2 {
			next = append(next, g.Xor(lits[i], lits[i+1]))
		}
		if len(lits)%2 == 1 {
			next = append(next, lits[len(lits)-1])
		}
		lits = next
	}
	return lits[0]
}

// SparserANF returns the ANF monomials of f or of its complement,
// whichever has fewer, and whether the complement was taken.
func SparserANF(f tt.TT) ([]uint32, bool) {
	mon := f.ANF()
	if alt := f.Not().ANF(); len(alt) < len(mon) {
		return alt, true
	}
	return mon, false
}

// Recipe is a named synthesis strategy producing a graph of type G.
type Recipe[G any] struct {
	Name        string
	Description string
	Build       func(spec []tt.TT) G
}

// Synthesize builds spec with the recipe called name.
func Synthesize[G any](recipes []Recipe[G], name string, spec []tt.TT) (G, error) {
	names := make([]string, len(recipes))
	for i, r := range recipes {
		if r.Name == name {
			return r.Build(spec), nil
		}
		names[i] = r.Name
	}
	var none G
	return none, fmt.Errorf("unknown recipe %q (have %v)", name, names)
}

// Graph is what the shared recipes need of a graph type G: inputs,
// outputs, a 2:1 multiplexer and the copy holding only output-reachable
// gates. Each graph type brings its own Mux (three ANDs in an AIG, the
// XOR form in an XAG, majorities in a MIG), so one recipe builds a
// structure native to each.
type Graph[G any] interface {
	PI(i int) aig.Lit
	AddPO(l aig.Lit) int
	Mux(sel, t, e aig.Lit) aig.Lit
	Cleanup() G
}

// Inputs returns the common input count of a multi-output
// specification, panicking on an empty or inconsistent one.
func Inputs(spec []tt.TT) int {
	if len(spec) == 0 {
		panic("gatenet: empty specification")
	}
	n := spec[0].NumVars()
	for _, f := range spec[1:] {
		if f.NumVars() != n {
			panic("gatenet: inconsistent arities")
		}
	}
	return n
}

// ShannonVar returns the support variable of f whose cofactors differ in
// the most minterms, the first such on ties, or -1 for a constant.
func ShannonVar(f tt.TT) int {
	best, bestScore := -1, -1
	for v := 0; v < f.NumVars(); v++ {
		if !f.HasVar(v) {
			continue
		}
		score := f.Cofactor(v, false).Xor(f.Cofactor(v, true)).CountOnes()
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// Shannon builds every output of spec in a graph made by newGraph, by
// recursive Shannon expansion on ShannonVar, memoizing subfunctions
// across branches and outputs (a free-order BDD flavor).
func Shannon[G Graph[G]](newGraph func(numPIs int) G, spec []tt.TT) G {
	g := newGraph(Inputs(spec))
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
		v := ShannonVar(f)
		l := g.Mux(g.PI(v), rec(f.Cofactor(v, true)), rec(f.Cofactor(v, false)))
		memo[key] = l
		return l
	}
	for _, f := range spec {
		g.AddPO(rec(f))
	}
	return g.Cleanup()
}

// BDD builds a shared ROBDD of every output of spec, under the variable
// order sifted on the widest-support output, and converts each BDD node
// into one multiplexer of a graph made by newGraph, sharing nodes
// across outputs.
func BDD[G Graph[G]](newGraph func(numPIs int) G, spec []tt.TT) G {
	n := Inputs(spec)
	widest := 0
	for i, f := range spec {
		if f.SupportSize() > spec[widest].SupportSize() {
			widest = i
		}
	}
	order := bdd.SiftOrder(spec[widest], 2)
	m := bdd.NewManager(n)
	roots := make([]int32, len(spec))
	for i, f := range spec {
		roots[i] = m.FromTT(f.Permute(order))
	}
	g := newGraph(n)
	memo := map[int32]aig.Lit{bdd.False: aig.LitFalse, bdd.True: aig.LitTrue}
	var conv func(node int32) aig.Lit
	conv = func(node int32) aig.Lit {
		if l, ok := memo[node]; ok {
			return l
		}
		// Manager level i tests original variable order[i].
		l := g.Mux(g.PI(order[m.Level(node)]), conv(m.High(node)), conv(m.Low(node)))
		memo[node] = l
		return l
	}
	for _, r := range roots {
		g.AddPO(conv(r))
	}
	return g.Cleanup()
}
