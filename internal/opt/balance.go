package opt

import (
	"slices"

	"repro/internal/aig"
)

// Balance rebuilds the AIG with minimum-depth AND trees: maximal
// multi-input AND supergates are collected through non-complemented,
// single-fanout edges and re-assembled pairing the two shallowest
// operands first (ABC's "b"). Structural hashing reshapes shared logic.
func Balance(g *aig.AIG) *aig.AIG {
	refs := g.RefCounts()
	ng := aig.New(g.NumPIs())
	copyNames(g, ng)
	m := make([]aig.Lit, g.NumObjs())
	for i := range m {
		m[i] = unmapped
	}
	m[0] = aig.LitFalse
	for i := 1; i <= g.NumPIs(); i++ {
		m[i] = aig.MakeLit(i, false)
	}

	var build func(id int) aig.Lit
	// collectSuper gathers the leaves of the maximal AND tree rooted at
	// id, expanding through plain edges into single-fanout AND nodes.
	var collectSuper func(l aig.Lit, root bool, leaves *[]aig.Lit)
	collectSuper = func(l aig.Lit, root bool, leaves *[]aig.Lit) {
		id := l.Node()
		if !root {
			if l.IsCompl() || !g.IsAnd(id) || refs[id] > 1 {
				*leaves = append(*leaves, l)
				return
			}
		}
		f0, f1 := g.Fanins(id)
		collectSuper(f0, false, leaves)
		collectSuper(f1, false, leaves)
	}
	build = func(id int) aig.Lit {
		if m[id] != unmapped {
			return m[id]
		}
		var leaves []aig.Lit
		collectSuper(aig.MakeLit(id, false), true, &leaves)
		// Map the leaves into the new graph.
		mapped := make([]aig.Lit, len(leaves))
		for i, l := range leaves {
			mapped[i] = build(l.Node()).NotCond(l.IsCompl())
		}
		// Huffman-style: repeatedly AND the two shallowest operands.
		for len(mapped) > 1 {
			slices.SortStableFunc(mapped, func(a, b aig.Lit) int {
				return ng.Level(a.Node()) - ng.Level(b.Node())
			})
			mapped = append(mapped[2:], ng.And(mapped[0], mapped[1]))
		}
		l := aig.LitTrue
		if len(mapped) == 1 {
			l = mapped[0]
		}
		m[id] = l
		return l
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		ng.AddPO(build(po.Node()).NotCond(po.IsCompl()))
	}
	return ng
}
