package opt

import (
	"repro/internal/aig"
	"repro/internal/synth"
)

// RefactorOptions tunes the refactoring pass.
type RefactorOptions struct {
	// ZeroCost also commits zero-gain restructurings (ABC's rf -z).
	ZeroCost bool
}

// refactorLeaves bounds the reconvergence-driven cone, which keeps cone
// truth tables cheap.
const refactorLeaves = 10

// RefactorOnce performs a single refactoring pass: for every node a large
// reconvergence-driven cone is collapsed to its truth table, re-expressed
// as a minimized, kernel-factored form (trying both polarities), and the
// cone is replaced when the factored structure is smaller than the
// bounded MFFC it frees.
func RefactorOnce(g *aig.AIG, opts RefactorOptions) *aig.AIG {
	refs := g.RefCounts()
	decisions := make(map[int]decision)
	var mffc []int

	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			continue
		}
		leaves := g.ReconvCut(id, refactorLeaves)
		if len(leaves) < 3 || len(leaves) > refactorLeaves+1 {
			continue
		}
		mffc = g.MFFC(id, refs, leaves, mffc)
		if len(mffc) < 2 && !opts.ZeroCost {
			continue // nothing worth restructuring
		}
		dec, gain := replacement(g, id, leaves, mffc, synth.FactoredStructure)
		if gain > 0 || (opts.ZeroCost && gain == 0) {
			decisions[id] = dec
		}
	}
	return keepSmaller(g, rebuild(g, decisions))
}
