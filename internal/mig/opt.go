package mig

import (
	"repro/internal/aig"
	"repro/internal/gatenet"
	"repro/internal/sop"
	"repro/internal/tt"
)

// RewriteOnce performs one majority cone-rewriting pass
// (gatenet.RewriteOnce) that resynthesizes each cone as the cheaper of
// a factored AND/OR form and a Shannon MUX form with majority
// detection, which turns a majority of three leaves into a single gate.
// The pass never grows the graph.
func RewriteOnce(g *MIG) *MIG { return &MIG{gatenet.RewriteOnce(g.Net, resynthesize)} }

// Rewrite iterates RewriteOnce to a fixpoint.
func Rewrite(g *MIG) *MIG { return &MIG{gatenet.Rewrite(g.Net, resynthesize)} }

// resynthesize builds both candidates for a cone function in scratch
// graphs and returns the cheaper, preferring the factored form on ties.
func resynthesize(f tt.TT) (int, func(*gatenet.Net, []aig.Lit) aig.Lit) {
	expr := sop.Factor(sop.MinimizeTT(f))
	factored := func(n *gatenet.Net, leaves []aig.Lit) aig.Lit {
		return gatenet.BuildExpr(&MIG{n}, expr, leaves)
	}
	shannon := func(n *gatenet.Net, leaves []aig.Lit) aig.Lit {
		return (&MIG{n}).shannonMaj(f, leaves, map[string]aig.Lit{})
	}
	cost := func(build func(*gatenet.Net, []aig.Lit) aig.Lit) int {
		scratch := gatenet.New(f.NumVars())
		build(scratch, scratch.PIs())
		return scratch.NumGates()
	}
	fc, sc := cost(factored), cost(shannon)
	if fc <= sc {
		return fc, factored
	}
	return sc, shannon
}

// Profile carries the diversity artifacts of one MIG.
type Profile = gatenet.Profile

// NewProfile profiles a MIG, running one rewriting step.
func NewProfile(g *MIG) Profile { return gatenet.NewProfile(g.Net, resynthesize) }

// RGC is the Relative Gate Count difference over majority gates.
func RGC(a, b Profile) float64 { return gatenet.RGC(a, b) }

// RLC is the Relative Level Count difference.
func RLC(a, b Profile) float64 { return gatenet.RLC(a, b) }

// RewriteScore is Eq. 3 with the MIG cone-rewriting operator.
func RewriteScore(a, b Profile) float64 { return gatenet.RewriteScore(a, b) }
