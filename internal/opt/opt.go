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
// (non-complemented) function.
type decision struct {
	mini   *aig.AIG
	leaves []int
}

// litDecision builds a decision replacing a node by a literal of another
// old-graph node (possibly complemented) — the 0-resubstitution shape.
func litDecision(node int, compl bool) decision {
	mini := aig.New(1)
	mini.AddPO(mini.PI(0).NotCond(compl))
	return decision{mini: mini, leaves: []int{node}}
}

// unmapped marks not-yet-rebuilt nodes during rebuild.
const unmapped = aig.Lit(0xFFFFFFFF)

// rebuild constructs a new AIG implementing the same outputs as g,
// materializing only the logic reachable from the POs and splicing in the
// per-node decisions. The invariant maintained is that the literal mapped
// for old node id implements exactly the function of node id.
func rebuild(g *aig.AIG, decisions map[int]decision) *aig.AIG {
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
	build = func(id int) aig.Lit {
		if m[id] != unmapped {
			return m[id]
		}
		if dec, ok := decisions[id]; ok {
			leafLits := make([]aig.Lit, len(dec.leaves))
			for i, leaf := range dec.leaves {
				leafLits[i] = build(leaf)
			}
			l := synth.Instantiate(ng, dec.mini, leafLits)
			m[id] = l
			return l
		}
		f0, f1 := g.Fanins(id)
		a := build(f0.Node()).NotCond(f0.IsCompl())
		b := build(f1.Node()).NotCond(f1.IsCompl())
		l := ng.And(a, b)
		m[id] = l
		return l
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		ng.AddPO(build(po.Node()).NotCond(po.IsCompl()))
	}
	return ng
}

func copyNames(from, to *aig.AIG) {
	for i := 0; i < from.NumPIs(); i++ {
		if n := from.PIName(i); n != "" {
			to.SetPIName(i, n)
		}
	}
	for i := 0; i < from.NumPOs(); i++ {
		if n := from.POName(i); n != "" {
			to.SetPOName(i, n)
		}
	}
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
		return constDecision(false), len(mffc)
	case f.IsConst1():
		return constDecision(true), len(mffc)
	case len(leaves) == 1:
		return litDecision(leaves[0], f.Equal(tt.Var(0, 1).Not())), len(mffc)
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

// constDecision replaces a node by a constant.
func constDecision(v bool) decision {
	mini := aig.New(0)
	mini.AddPO(aig.LitFalse.NotCond(v))
	return decision{mini: mini, leaves: nil}
}

// keepSmaller returns the candidate when it improves on (or, when
// allowEqual, matches) the incumbent's AND count, else the incumbent.
func keepSmaller(old, candidate *aig.AIG, allowEqual bool) *aig.AIG {
	if candidate.NumAnds() < old.NumAnds() || (allowEqual && candidate.NumAnds() == old.NumAnds()) {
		return candidate
	}
	return old
}
