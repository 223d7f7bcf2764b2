// Package mig implements Majority-Inverter Graphs — the second "other
// logic graph type" named by the paper's future work. Every node is a
// three-input majority gate with complement edges; AND and OR are
// majorities with a constant input, so MIGs strictly generalize AIGs
// while enabling majority-algebra optimizations that AIGs cannot
// express.
//
// The network itself (storage, simulation, checks, cuts, the rewriting
// pass, profiles) is the shared gatenet.Net; this package adds the
// gates built from majorities, AIG import, the MIG recipes and the
// factored-versus-majority-Shannon cone resynthesis.
package mig

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/gatenet"
)

// MIG is a structurally hashed majority-inverter graph: a gatenet.Net
// holding only majority gates. Nodes are normalized: fanins sorted, at
// most one complemented fanin (majority is self-dual, so excess
// complements flip the output).
type MIG struct{ *gatenet.Net }

// New creates a MIG with the given number of inputs.
func New(numPIs int) *MIG { return &MIG{gatenet.New(numPIs)} }

// Maj returns the majority of three literals, applying the majority
// axioms (Ω.M: duplicate and complementary absorption), normalizing the
// complement parity, and structurally hashing.
func (g *MIG) Maj(a, b, c aig.Lit) aig.Lit { return gatenet.Maj(g.Net, a, b, c) }

// And returns AND(a, b) = M(a, b, 0).
func (g *MIG) And(a, b aig.Lit) aig.Lit { return g.Maj(a, b, aig.LitFalse) }

// Or returns OR(a, b) = M(a, b, 1).
func (g *MIG) Or(a, b aig.Lit) aig.Lit { return g.Maj(a, b, aig.LitTrue) }

// Mux returns sel ? t : e.
func (g *MIG) Mux(sel, t, e aig.Lit) aig.Lit {
	if t == e {
		return t
	}
	return g.Or(g.And(sel, t), g.And(sel.Not(), e))
}

// Xor returns XOR(a, b).
func (g *MIG) Xor(a, b aig.Lit) aig.Lit { return g.Mux(a, b.Not(), b) }

// Cleanup returns a copy containing only output-reachable gates.
func (g *MIG) Cleanup() *MIG { return &MIG{g.Net.Cleanup()} }

// Stats summarizes the graph.
type Stats struct {
	PIs, POs, Gates, Levels int
}

// Stat returns summary statistics.
func (g *MIG) Stat() Stats {
	return Stats{PIs: g.NumPIs(), POs: g.NumPOs(), Gates: g.NumGates(), Levels: g.NumLevels()}
}

func (s Stats) String() string {
	return fmt.Sprintf("i/o = %d/%d  maj = %d  lev = %d", s.PIs, s.POs, s.Gates, s.Levels)
}

// FromAIG converts an AIG into a MIG (AND(a,b) = M(a,b,0)).
func FromAIG(a *aig.AIG) *MIG {
	g := New(a.NumPIs())
	m := make([]aig.Lit, a.NumObjs())
	for i := 1; i <= a.NumPIs(); i++ {
		m[i] = aig.MakeLit(i, false)
	}
	lit := func(l aig.Lit) aig.Lit { return m[l.Node()].NotCond(l.IsCompl()) }
	for id := a.NumPIs() + 1; id < a.NumObjs(); id++ {
		f0, f1 := a.Fanins(id)
		m[id] = g.And(lit(f0), lit(f1))
	}
	for i := 0; i < a.NumPOs(); i++ {
		g.AddPO(lit(a.PO(i)))
	}
	return g.Cleanup()
}
