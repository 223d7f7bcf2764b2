package gatenet

import (
	"fmt"

	"repro/internal/aig"
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

// Recipe is a named synthesis strategy producing a graph of type G.
type Recipe[G any] struct {
	Name        string
	Description string
	Build       func(spec []tt.TT) G
}

// Synthesize builds spec with the recipe called name.
func Synthesize[G any](recipes []Recipe[G], name string, spec []tt.TT) (G, error) {
	for _, r := range recipes {
		if r.Name == name {
			return r.Build(spec), nil
		}
	}
	var none G
	return none, fmt.Errorf("gatenet: unknown recipe %q", name)
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
