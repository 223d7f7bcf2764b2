package opt

import (
	"repro/internal/aig"
	"repro/internal/synth"
)

// RewriteOptions tunes the cut-rewriting pass.
type RewriteOptions struct {
	// ZeroCost also commits replacements with zero gain, diversifying the
	// structure (ABC's rw -z).
	ZeroCost bool
	// K is the cut size (default 4, the classic DAC'06 setting).
	K int
}

func (o RewriteOptions) k() int {
	if o.K < 2 {
		return 4
	}
	if o.K > 6 {
		return 6 // NPN library limit
	}
	return o.K
}

// RewriteOnce performs a single DAG-aware rewriting pass: for every node,
// the K-feasible cuts are enumerated, each cut function is NPN-
// canonicalized and resynthesized from the precomputed library, and the
// best positive-gain replacement (saved MFFC minus newly added structure)
// is committed. Returns the rebuilt graph.
func RewriteOnce(g *aig.AIG, opts RewriteOptions) *aig.AIG {
	cuts := g.EnumerateCuts(aig.CutParams{K: opts.k()})
	refs := g.RefCounts()
	decisions := make(map[int]decision)
	var mffc []int

	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			continue // dangling: rebuild drops it anyway
		}
		bestGain := 0
		var best decision
		haveBest := false
		for _, cut := range cuts[id] {
			if len(cut.Leaves) < 2 {
				continue
			}
			mffc = g.MFFC(id, refs, cut.Leaves, mffc)
			dec, gain := replacement(g, id, cut.Leaves, mffc, synth.LibraryStructure)
			if gain > bestGain || (opts.ZeroCost && !haveBest && gain == bestGain) {
				bestGain = gain
				best = dec
				haveBest = true
			}
		}
		if haveBest {
			decisions[id] = best
		}
	}
	// Gain accounting is an estimate (overlapping MFFCs, sharing with the
	// not-yet-rebuilt fanout logic); never return a larger graph.
	return keepSmaller(g, rebuild(g, decisions))
}
