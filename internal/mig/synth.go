package mig

import (
	"repro/internal/aig"
	"repro/internal/gatenet"
	"repro/internal/sop"
	"repro/internal/tt"
)

// Recipe is a named MIG synthesis strategy.
type Recipe = gatenet.Recipe[*MIG]

// Recipes returns the MIG synthesis recipes in canonical order.
func Recipes() []Recipe {
	return []Recipe{
		{Name: "shannon", Description: "Shannon decomposition through majority multiplexers", Build: SynthShannon},
		{Name: "factored", Description: "espresso-minimized, kernel-factored AND/OR form", Build: SynthFactored},
		{Name: "bdd", Description: "sifted ROBDD converted to a majority MUX tree", Build: SynthBDD},
	}
}

// Synthesize dispatches on the recipe name.
func Synthesize(name string, spec []tt.TT) (*MIG, error) {
	return gatenet.Synthesize(Recipes(), name, spec)
}

// SynthShannon decomposes by Shannon expansion with majority detection:
// when a function is exactly the majority of three (possibly
// complemented) remaining variables it becomes a single gate.
func SynthShannon(spec []tt.TT) *MIG {
	g := New(gatenet.Inputs(spec))
	pis, memo := g.PIs(), make(map[string]aig.Lit)
	for _, f := range spec {
		g.AddPO(g.shannonMaj(f, pis, memo))
	}
	return g.Cleanup()
}

// shannonMaj builds f over the leaf literals by Shannon expansion,
// emitting a single gate wherever the residue is a majority of three
// leaves; memo maps a subfunction's hex form to its literal.
func (g *MIG) shannonMaj(f tt.TT, leaves []aig.Lit, memo map[string]aig.Lit) aig.Lit {
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
	if vars, compl, ok := majOfVars(f); ok {
		out = g.Maj(
			leaves[vars[0]].NotCond(compl[0]),
			leaves[vars[1]].NotCond(compl[1]),
			leaves[vars[2]].NotCond(compl[2]),
		)
	} else {
		v := gatenet.ShannonVar(f)
		out = g.Mux(leaves[v],
			g.shannonMaj(f.Cofactor(v, true), leaves, memo),
			g.shannonMaj(f.Cofactor(v, false), leaves, memo))
	}
	memo[key] = out
	return out
}

// majOfVars reports whether f is exactly MAJ(±x, ±y, ±z) of three
// support variables, returning the variables and their complements.
func majOfVars(f tt.TT) (vars [3]int, compl [3]bool, ok bool) {
	sup := f.Support()
	if len(sup) != 3 {
		return vars, compl, false
	}
	n := f.NumVars()
	copy(vars[:], sup)
	for mask := 0; mask < 8; mask++ {
		var t [3]tt.TT
		for k := range t {
			compl[k] = mask>>uint(k)&1 == 1
			t[k] = tt.Var(vars[k], n)
			if compl[k] {
				t[k] = t[k].Not()
			}
		}
		if t[0].And(t[1]).Or(t[0].And(t[2])).Or(t[1].And(t[2])).Equal(f) {
			return vars, compl, true
		}
	}
	return vars, compl, false
}

// SynthFactored minimizes and factors each output into AND/OR majority
// gates.
func SynthFactored(spec []tt.TT) *MIG {
	g := New(gatenet.Inputs(spec))
	for _, f := range spec {
		g.AddPO(gatenet.BuildExpr(g, sop.Factor(sop.MinimizeTT(f)), g.PIs()))
	}
	return g.Cleanup()
}

// SynthBDD builds a shared sifted BDD and converts each node to a
// majority multiplexer.
func SynthBDD(spec []tt.TT) *MIG { return gatenet.BDD(New, spec) }
