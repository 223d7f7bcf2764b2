// Package synth converts Boolean function specifications (truth tables)
// into And-Inverter Graphs using seven structurally distinct recipes,
// reproducing the paper's step of generating functionally equivalent but
// structurally diverse starting points for optimization. It also provides
// the shared cut-resynthesis helper used by the optimization passes.
package synth

import (
	"repro/internal/aig"
	"repro/internal/sop"
	"repro/internal/tt"
)

// BalancedAnd builds a minimum-depth AND tree over the literals.
func BalancedAnd(g *aig.AIG, lits []aig.Lit) aig.Lit {
	if len(lits) == 0 {
		return aig.LitTrue
	}
	work := append([]aig.Lit(nil), lits...)
	for len(work) > 1 {
		var next []aig.Lit
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, g.And(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// BalancedOr builds a minimum-depth OR tree over the literals.
func BalancedOr(g *aig.AIG, lits []aig.Lit) aig.Lit {
	if len(lits) == 0 {
		return aig.LitFalse
	}
	inv := make([]aig.Lit, len(lits))
	for i, l := range lits {
		inv[i] = l.Not()
	}
	return BalancedAnd(g, inv).Not()
}

// ChainAnd builds a left-deep AND chain (maximum depth, minimum width).
func ChainAnd(g *aig.AIG, lits []aig.Lit) aig.Lit {
	out := aig.LitTrue
	for _, l := range lits {
		out = g.And(out, l)
	}
	return out
}

// ChainOr builds a left-deep OR chain.
func ChainOr(g *aig.AIG, lits []aig.Lit) aig.Lit {
	out := aig.LitFalse
	for _, l := range lits {
		out = g.Or(out, l)
	}
	return out
}

// CubeLit instantiates a cube as an AND of input literals.
func CubeLit(g *aig.AIG, c tt.Cube, inputs []aig.Lit, balanced bool) aig.Lit {
	var lits []aig.Lit
	for v := 0; v < len(inputs); v++ {
		if c.HasVar(v) {
			lits = append(lits, inputs[v].NotCond(!c.Phase(v)))
		}
	}
	if balanced {
		return BalancedAnd(g, lits)
	}
	return ChainAnd(g, lits)
}

// CoverLit instantiates a cube cover as an OR of cube ANDs.
func CoverLit(g *aig.AIG, c sop.Cover, inputs []aig.Lit, balanced bool) aig.Lit {
	lits := make([]aig.Lit, len(c.Cubes))
	for i, cube := range c.Cubes {
		lits[i] = CubeLit(g, cube, inputs, balanced)
	}
	if balanced {
		return BalancedOr(g, lits)
	}
	return ChainOr(g, lits)
}

// ExprLit instantiates a factored expression over the input literals.
func ExprLit(g *aig.AIG, e *sop.Expr, inputs []aig.Lit) aig.Lit {
	switch e.Kind {
	case sop.ExprConst0:
		return aig.LitFalse
	case sop.ExprConst1:
		return aig.LitTrue
	case sop.ExprLit:
		return inputs[e.Var].NotCond(!e.Pos)
	case sop.ExprAnd:
		lits := make([]aig.Lit, len(e.Args))
		for i, a := range e.Args {
			lits[i] = ExprLit(g, a, inputs)
		}
		return BalancedAnd(g, lits)
	case sop.ExprOr:
		lits := make([]aig.Lit, len(e.Args))
		for i, a := range e.Args {
			lits[i] = ExprLit(g, a, inputs)
		}
		return BalancedOr(g, lits)
	}
	panic("synth: invalid expression kind")
}
