// Package opt implements the AIG optimization algorithms of the paper's
// experimental substrate: DAG-aware rewriting, refactoring, resubstitution
// and balancing, plus the three high-effort flows used in the evaluation
// (Orchestrate, DC2, DeepSyn).
//
// All passes follow a select-then-rebuild architecture: candidate
// replacements are selected on the current graph with MFFC-based gain
// accounting, then a demand-driven rebuild materializes only the logic
// reachable from the outputs, dropping the fanout-free cones of replaced
// nodes. Every pass preserves functional equivalence by construction
// (replacement structures implement the exact cut function); the test
// suite additionally verifies equivalence by exhaustive simulation after
// every pass.
package opt

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// decision records a chosen replacement for an AND node of the old graph:
// a single-output structure over the functions of the given old-graph
// leaf nodes. The structure's output literal implements the node's plain
// (non-complemented) function. Structures are shared and only read.
type decision struct {
	mini   *aig.AIG
	leaves []int
}

// The gate shapes of every decision that is not a resynthesized cut
// structure, each built once per input polarity: entry p complements
// input i when bit i of p is set. A constant is the literal of node 0.
// They are package state that concurrent passes read, never modify.
var (
	litShape  = gateShapes(1, func(g *aig.AIG, in []aig.Lit) aig.Lit { return in[0] })
	andShape  = gateShapes(2, func(g *aig.AIG, in []aig.Lit) aig.Lit { return g.And(in[0], in[1]) })
	orShape   = gateShapes(2, func(g *aig.AIG, in []aig.Lit) aig.Lit { return g.Or(in[0], in[1]) })
	xorShape  = gateShapes(2, func(g *aig.AIG, in []aig.Lit) aig.Lit { return g.Xor(in[0], in[1]) })
	and3Shape = gateShapes(3, func(g *aig.AIG, in []aig.Lit) aig.Lit { return g.And(g.And(in[0], in[1]), in[2]) })
	or3Shape  = gateShapes(3, func(g *aig.AIG, in []aig.Lit) aig.Lit { return g.Or(g.Or(in[0], in[1]), in[2]) })
)

// gateShapes builds the single-output structure f over n inputs for
// each of the 2^n input polarities.
func gateShapes(n int, f func(g *aig.AIG, in []aig.Lit) aig.Lit) []*aig.AIG {
	shapes := make([]*aig.AIG, 1<<n)
	in := make([]aig.Lit, n)
	for p := range shapes {
		g := aig.New(n)
		for i := range in {
			in[i] = g.PI(i).NotCond(p>>i&1 == 1)
		}
		g.AddPO(f(g, in))
		shapes[p] = g
	}
	return shapes
}

// gateDecision replaces a node by shape over the literals ds of old-graph
// nodes: the shape's structure for ds' polarities, over ds' nodes.
func gateDecision(shape []*aig.AIG, ds ...aig.Lit) decision {
	p := 0
	leaves := make([]int, len(ds))
	for i, d := range ds {
		leaves[i] = d.Node()
		if d.IsCompl() {
			p |= 1 << i
		}
	}
	return decision{mini: shape[p], leaves: leaves}
}

// rebuild copies the logic of g reachable from the outputs (aig.Rebuild),
// splicing in the per-node decisions. The literal built for old node id
// implements exactly the function of node id.
func rebuild(g *aig.AIG, decisions map[int]decision) *aig.AIG {
	return g.Rebuild(func(ng *aig.AIG, id int, build func(int) aig.Lit) (aig.Lit, bool) {
		dec, ok := decisions[id]
		if !ok {
			return 0, false
		}
		var litBuf [16]aig.Lit
		leafLits := litBuf[:0]
		for _, leaf := range dec.leaves {
			leafLits = append(leafLits, build(leaf))
		}
		return synth.Instantiate(ng, dec.mini, leafLits), true
	})
}

// replacement scores replacing AND node id by logic over the cut
// leaves, where mffc is the cone the replacement frees (aig.MFFC bounded
// by leaves). The cut function, compacted to its support, becomes a
// constant, a literal of one leaf, or structure(f) over the remaining
// leaves. The gain is len(mffc) minus the fresh AND nodes the
// replacement adds; nodes of the MFFC do not count as shareable.
func replacement(g *aig.AIG, id int, leaves, mffc []int, structure func(tt.TT) *aig.AIG) (decision, int) {
	leaves, f := compactCut(leaves, g.CutTT(id, leaves))
	switch {
	case f.IsConst0():
		return gateDecision(litShape, aig.LitFalse), len(mffc)
	case f.IsConst1():
		return gateDecision(litShape, aig.LitTrue), len(mffc)
	case len(leaves) == 1:
		return gateDecision(litShape, aig.MakeLit(leaves[0], f.Equal(tt.Var(0, 1).Not()))), len(mffc)
	}
	mini := structure(f)
	var litBuf [16]aig.Lit
	leafLits := litBuf[:0]
	for _, leaf := range leaves {
		leafLits = append(leafLits, aig.MakeLit(leaf, false))
	}
	cost := synth.InstantiateCostBlocked(g, mini, leafLits, mffc)
	return decision{mini: mini, leaves: leaves}, len(mffc) - cost
}

// compactCut removes cut leaves the function does not depend on and
// shrinks the truth table accordingly.
func compactCut(leaves []int, f tt.TT) ([]int, tt.TT) {
	if f.SupportMask() == 1<<len(leaves)-1 {
		return leaves, f
	}
	support := f.Support()
	kept := make([]int, len(support))
	perm := make([]int, 0, f.NumVars())
	for i, v := range support {
		kept[i] = leaves[v]
		perm = append(perm, v)
	}
	// Route support variable v to position i, dead variables to the tail.
	for v := 0; v < f.NumVars(); v++ {
		if !slices.Contains(support, v) {
			perm = append(perm, v)
		}
	}
	g := f.Permute(perm)
	if len(support) == 0 {
		return nil, g.Shrink(0)
	}
	return kept, g.Shrink(len(support))
}

// keepSmaller returns the candidate unless it has more AND nodes than
// the incumbent.
func keepSmaller(old, candidate *aig.AIG) *aig.AIG {
	if candidate.NumAnds() <= old.NumAnds() {
		return candidate
	}
	return old
}
