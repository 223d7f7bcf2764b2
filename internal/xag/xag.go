// Package xag implements XOR-AND Graphs — the first of the two "other
// logic graph types" the paper's future-work section targets. An XAG
// node is either a two-input AND or a two-input XOR; edges carry
// complement tags. XOR nodes make parity-heavy logic (arithmetic,
// cryptography) exponentially more compact than in AIGs, which changes
// what "structurally diverse" means — exactly the setting in which the
// paper's diversity framework is meant to generalize.
//
// The network itself (storage, simulation, checks, cuts, the rewriting
// pass, profiles) is the shared gatenet.Net; this package adds the XAG
// gate set, XOR-motif recovery on AIG import, the XAG recipes and the
// ANF-versus-factored cone resynthesis.
package xag

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/gatenet"
)

// XAG is a structurally hashed XOR-AND graph: a gatenet.Net holding only
// AND and XOR gates. XOR nodes are normalized to plain fanins (input
// complements are pulled to the output), so structural hashing catches
// all XOR polarity variants.
type XAG struct{ *gatenet.Net }

// New creates an XAG with the given number of primary inputs.
func New(numPIs int) *XAG { return &XAG{gatenet.New(numPIs)} }

// NumAnds returns the AND gate count — the multiplicative complexity
// proxy that XAG-based cryptography research optimizes.
func (g *XAG) NumAnds() int { return g.Count(gatenet.And2) }

// NumXors returns the XOR gate count.
func (g *XAG) NumXors() int { return g.Count(gatenet.Xor2) }

// And returns AND(a, b) with constant folding and structural hashing.
func (g *XAG) And(a, b aig.Lit) aig.Lit { return gatenet.And(g.Net, a, b) }

// Xor returns XOR(a, b) as a native XOR gate, normalizing complements to
// the output: xor(!a, b) == !xor(a, b).
func (g *XAG) Xor(a, b aig.Lit) aig.Lit { return gatenet.Xor(g.Net, a, b) }

// Or returns OR(a, b).
func (g *XAG) Or(a, b aig.Lit) aig.Lit { return g.And(a.Not(), b.Not()).Not() }

// Mux returns sel ? t : e, using the XOR form e XOR (sel AND (t XOR e)).
func (g *XAG) Mux(sel, t, e aig.Lit) aig.Lit {
	return g.Xor(e, g.And(sel, g.Xor(t, e)))
}

// Cleanup returns a copy with only output-reachable gates.
func (g *XAG) Cleanup() *XAG { return &XAG{g.Net.Cleanup()} }

// Stats summarizes the graph.
type Stats struct {
	PIs, POs, Ands, Xors, Levels int
}

// Stat returns summary statistics.
func (g *XAG) Stat() Stats {
	return Stats{PIs: g.NumPIs(), POs: g.NumPOs(), Ands: g.NumAnds(), Xors: g.NumXors(), Levels: g.NumLevels()}
}

func (s Stats) String() string {
	return fmt.Sprintf("i/o = %d/%d  and = %d  xor = %d  lev = %d", s.PIs, s.POs, s.Ands, s.Xors, s.Levels)
}

// FromAIG converts an AIG into an XAG, recognizing the three-AND XOR
// motif and mapping it to native XOR gates. The result is typically
// smaller than the AIG on parity-heavy logic and structurally very
// different — a new kind of diversity the AIG recipes cannot produce.
func FromAIG(a *aig.AIG) *XAG {
	g := New(a.NumPIs())
	m := make([]aig.Lit, a.NumObjs())
	for i := 1; i <= a.NumPIs(); i++ {
		m[i] = aig.MakeLit(i, false)
	}
	lit := func(l aig.Lit) aig.Lit { return m[l.Node()].NotCond(l.IsCompl()) }
	for id := a.NumPIs() + 1; id < a.NumObjs(); id++ {
		if x, y, ok := xorMotif(a, id); ok {
			m[id] = g.Xor(lit(x), lit(y)).Not()
			continue
		}
		f0, f1 := a.Fanins(id)
		m[id] = g.And(lit(f0), lit(f1))
	}
	for i := 0; i < a.NumPOs(); i++ {
		g.AddPO(lit(a.PO(i)))
	}
	return g.Cleanup()
}

// xorMotif recognizes node id == AND(!AND(p,q), !AND(r,s)) where the
// inner ANDs implement a XOR b: {p,q} == {a, !b}, {r,s} == {!a, b}.
// Returns the XOR operands; id itself computes XNOR(x, y) (AND of the
// complemented halves is the complement of the OR), so callers
// complement the XOR.
func xorMotif(a *aig.AIG, id int) (x, y aig.Lit, ok bool) {
	f0, f1 := a.Fanins(id)
	if !f0.IsCompl() || !f1.IsCompl() {
		return 0, 0, false
	}
	n0, n1 := f0.Node(), f1.Node()
	if !a.IsAnd(n0) || !a.IsAnd(n1) {
		return 0, 0, false
	}
	p, q := a.Fanins(n0)
	r, s := a.Fanins(n1)
	// Need {p,q} and {r,s} to be {u, v} with polarities crossed:
	// p==!r and q==!s (in some order).
	if (p == r.Not() && q == s.Not()) || (p == s.Not() && q == r.Not()) {
		return p, q.Not(), true
	}
	return 0, 0, false
}
