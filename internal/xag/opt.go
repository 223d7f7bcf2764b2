package xag

import (
	"math/bits"

	"repro/internal/aig"
	"repro/internal/gatenet"
	"repro/internal/sop"
	"repro/internal/tt"
)

// RewriteOnce performs one cone-rewriting pass (gatenet.RewriteOnce) that
// resynthesizes each cone as the cheaper of its ANF (XOR-of-ANDs) and
// factored AND/OR forms. The pass never grows the graph.
func RewriteOnce(g *XAG) *XAG { return &XAG{gatenet.RewriteOnce(g.Net, resynthesize)} }

// Rewrite iterates RewriteOnce to a fixpoint.
func Rewrite(g *XAG) *XAG { return &XAG{gatenet.Rewrite(g.Net, resynthesize)} }

// resynthesize prices a cone function as the cheaper of its ANF, in the
// sparser polarity, and its factored form, preferring the ANF on ties.
func resynthesize(f tt.TT) (int, func(*gatenet.Net, []aig.Lit) aig.Lit) {
	mon, invert := gatenet.SparserANF(f)
	anfCost := max(len(mon)-1, 0) // XORs joining the monomials
	for _, m := range mon {
		anfCost += max(bits.OnesCount32(m)-1, 0) // ANDs within each
	}
	expr := sop.Factor(sop.MinimizeTT(f))
	if exprCost := exprGateCount(expr); exprCost < anfCost {
		return exprCost, func(n *gatenet.Net, leaves []aig.Lit) aig.Lit {
			return gatenet.BuildExpr(&XAG{n}, expr, leaves)
		}
	}
	return anfCost, func(n *gatenet.Net, leaves []aig.Lit) aig.Lit {
		g, out := &XAG{n}, aig.LitFalse
		for _, m := range mon {
			out = g.Xor(out, g.monomial(m, leaves))
		}
		return out.NotCond(invert)
	}
}

// exprGateCount returns the two-input gates a factored expression needs.
func exprGateCount(e *sop.Expr) int {
	if e.Kind != sop.ExprAnd && e.Kind != sop.ExprOr {
		return 0
	}
	n := len(e.Args) - 1
	for _, a := range e.Args {
		n += exprGateCount(a)
	}
	return n
}

// Profile carries the diversity artifacts of one XAG: the shared
// profile plus the AND count behind RMC.
type Profile struct {
	gatenet.Profile
	Ands int
}

// NewProfile profiles an XAG, running one rewriting step.
func NewProfile(g *XAG) Profile {
	return Profile{gatenet.NewProfile(g.Net, resynthesize), g.NumAnds()}
}

// RGC is the Relative Gate Count difference (Eq. 2 on XAG gate counts).
func RGC(a, b Profile) float64 { return gatenet.RGC(a.Profile, b.Profile) }

// RMC is the Relative Multiplicative Complexity difference: Eq. 2 over
// AND counts only, the natural XAG-specific attribute (XORs are "free"
// in many XAG cost models).
func RMC(a, b Profile) float64 { return gatenet.RelDiff(a.Ands, b.Ands) }

// RLC is the Relative Level Count difference.
func RLC(a, b Profile) float64 { return gatenet.RLC(a.Profile, b.Profile) }

// RewriteScore is Eq. 3 with the XAG cone-rewriting operator.
func RewriteScore(a, b Profile) float64 { return gatenet.RewriteScore(a.Profile, b.Profile) }
