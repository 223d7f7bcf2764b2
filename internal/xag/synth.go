package xag

import (
	"repro/internal/aig"
	"repro/internal/gatenet"
	"repro/internal/sop"
	"repro/internal/tt"
)

// Recipe is a named XAG synthesis strategy — the XAG counterpart of the
// seven AIG recipes, generating structurally diverse XAGs from one
// specification.
type Recipe = gatenet.Recipe[*XAG]

// Recipes returns the XAG synthesis recipes in canonical order.
func Recipes() []Recipe {
	return []Recipe{
		{Name: "anf", Description: "Reed-Muller XOR-of-ANDs expansion", Build: SynthANF},
		{Name: "factored", Description: "espresso-minimized, kernel-factored AND/OR form", Build: SynthFactored},
		{Name: "shannon", Description: "Shannon decomposition with XOR-based multiplexers", Build: SynthShannon},
	}
}

// Synthesize dispatches on the recipe name.
func Synthesize(name string, spec []tt.TT) (*XAG, error) {
	return gatenet.Synthesize(Recipes(), name, spec)
}

// SynthANF builds each output as a balanced XOR of AND monomials — the
// native XAG form of the algebraic normal form. Dense functions use the
// complement when sparser.
func SynthANF(spec []tt.TT) *XAG {
	g := New(gatenet.Inputs(spec))
	pis := g.PIs()
	for _, f := range spec {
		mon, invert := gatenet.SparserANF(f)
		terms := make([]aig.Lit, len(mon))
		for i, m := range mon {
			terms[i] = g.monomial(m, pis)
		}
		g.AddPO(gatenet.BalancedXor(g, terms).NotCond(invert))
	}
	return g.Cleanup()
}

// monomial returns the AND chain of the leaves whose bits are set in m.
func (g *XAG) monomial(m uint32, leaves []aig.Lit) aig.Lit {
	term := aig.LitTrue
	for v, leaf := range leaves {
		if m>>uint(v)&1 == 1 {
			term = g.And(term, leaf)
		}
	}
	return term
}

// SynthFactored minimizes and factors each output, building it from
// AND/OR structure only (XOR gates appear only when strashing finds
// them via the Mux-free construction — i.e. never; this is the
// deliberately XOR-poor counterpoint to SynthANF).
func SynthFactored(spec []tt.TT) *XAG {
	g := New(gatenet.Inputs(spec))
	for _, f := range spec {
		g.AddPO(gatenet.BuildExpr(g, sop.Factor(sop.MinimizeTT(f)), g.PIs()))
	}
	return g.Cleanup()
}

// SynthShannon decomposes by Shannon expansion using the XOR-form
// multiplexer e XOR (s AND (t XOR e)), memoizing subfunctions.
func SynthShannon(spec []tt.TT) *XAG { return gatenet.Shannon(New, spec) }
