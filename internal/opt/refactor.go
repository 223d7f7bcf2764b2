package opt

import (
	"repro/internal/aig"
	"repro/internal/sop"
	"repro/internal/synth"
	"repro/internal/tt"
)

// RefactorOptions tunes the refactoring pass.
type RefactorOptions struct {
	// ZeroCost also commits zero-gain restructurings (ABC's rf -z).
	ZeroCost bool
	// MaxLeaves bounds the reconvergence-driven cone (default 10,
	// capped at 12 to keep cone truth tables cheap).
	MaxLeaves int
}

func (o RefactorOptions) maxLeaves() int {
	switch {
	case o.MaxLeaves <= 0:
		return 10
	case o.MaxLeaves > 12:
		return 12
	}
	return o.MaxLeaves
}

// RefactorOnce performs a single refactoring pass: for every node a large
// reconvergence-driven cone is collapsed to its truth table, re-expressed
// as a minimized, kernel-factored form (trying both polarities), and the
// cone is replaced when the factored structure is smaller than the
// bounded MFFC it frees.
func RefactorOnce(g *aig.AIG, opts RefactorOptions) *aig.AIG {
	refs := g.RefCounts()
	decisions := make(map[int]decision)
	maxLeaves := opts.maxLeaves()

	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			continue
		}
		leaves := g.ReconvCut(id, maxLeaves)
		if len(leaves) < 3 || len(leaves) > maxLeaves+1 {
			continue
		}
		boundary := boundarySet(leaves)
		saved := g.MFFCSizeBounded(id, refs, boundary)
		if saved < 2 && !opts.ZeroCost {
			continue // nothing worth restructuring
		}
		f := g.CutTT(id, leaves)
		cLeaves, cf := compactCut(leaves, f)
		var dec decision
		var cost int
		switch {
		case cf.IsConst0():
			dec = constDecision(false)
		case cf.IsConst1():
			dec = constDecision(true)
		case len(cLeaves) == 1:
			dec = litDecision(cLeaves[0], cf.Equal(tt.Var(0, 1).Not()))
		default:
			mini := factoredStructure(cf)
			blocked := blockedSet(g, id, refs, boundary)
			cost = synth.InstantiateCostBlocked(g, mini, oldLeafLits(cLeaves), blocked)
			dec = decision{mini: mini, leaves: cLeaves}
		}
		gain := saved - cost
		if gain > 0 || (opts.ZeroCost && gain == 0) {
			decisions[id] = dec
		}
	}
	return keepSmaller(g, rebuild(g, decisions), true)
}

// Refactor iterates refactoring passes to convergence.
func Refactor(g *aig.AIG, opts RefactorOptions) *aig.AIG {
	cur := g
	for i := 0; i < 8; i++ {
		next := RefactorOnce(cur, opts)
		if next.NumAnds() >= cur.NumAnds() {
			return keepSmaller(cur, next, opts.ZeroCost)
		}
		cur = next
	}
	return cur
}

// factoredStructure builds a single-output AIG for f from the smaller of
// the factored forms of f and its complement.
func factoredStructure(f tt.TT) *aig.AIG {
	pos := factoredAIG(f, false)
	neg := factoredAIG(f.Not(), true)
	if neg.NumAnds() < pos.NumAnds() {
		return neg
	}
	return pos
}

func factoredAIG(f tt.TT, invertOut bool) *aig.AIG {
	expr := sop.Factor(sop.MinimizeTT(f))
	g := aig.New(f.NumVars())
	in := make([]aig.Lit, f.NumVars())
	for i := range in {
		in[i] = g.PI(i)
	}
	out := synth.ExprLit(g, expr, in)
	g.AddPO(out.NotCond(invertOut))
	return g.Cleanup()
}
