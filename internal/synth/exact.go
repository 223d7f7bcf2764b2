package synth

import (
	"sync"

	"repro/internal/aig"
	"repro/internal/tt"
)

// Exact synthesis for functions of up to three variables: a Dijkstra-like
// relaxation over the 256-function space finds the minimum AND-tree cost
// of every function (inverters free, no sharing), and the recorded
// derivations rebuild the structure. Three-variable functions appear
// constantly as compacted cut functions during rewriting, so exact
// structures here measurably sharpen the NPN library (see the
// BenchmarkAblationRewriteLibrary bench).

type exactEntry struct {
	cost int
	// Derivation: f = AND(a ^ aInv, b ^ bInv), possibly complemented via
	// representation (entries are stored for both f and ~f).
	a, b       uint8
	aInv, bInv bool
	leaf       int // >= 0: variable index; -1: constant/derived
}

var exact3 struct {
	once  sync.Once
	table [256]exactEntry
}

func buildExact3() {
	const inf = 1 << 20
	t := &exact3.table
	for i := range t {
		t[i] = exactEntry{cost: inf, leaf: -1}
	}
	// Constants and literals cost 0.
	t[0x00] = exactEntry{cost: 0, leaf: -2}
	t[0xFF] = exactEntry{cost: 0, leaf: -2}
	vars := [3]uint8{0xAA, 0xCC, 0xF0}
	for v, pat := range vars {
		t[pat] = exactEntry{cost: 0, leaf: v}
		t[^pat] = exactEntry{cost: 0, leaf: v} // complement is free
	}
	// Relax until fixpoint: new = a AND b over all polarity choices.
	for changed := true; changed; {
		changed = false
		for a := 0; a < 256; a++ {
			if t[a].cost >= inf {
				continue
			}
			for b := a; b < 256; b++ {
				if t[b].cost >= inf {
					continue
				}
				cost := t[a].cost + t[b].cost + 1
				f := uint8(a) & uint8(b)
				if cost < t[f].cost {
					t[f] = exactEntry{cost: cost, a: uint8(a), b: uint8(b), leaf: -1}
					changed = true
				}
				if nf := ^f; cost < t[nf].cost {
					// ~(a&b): same gate, complemented output — model by
					// storing the derivation on the complement; rebuild
					// handles it through the pairing below.
					t[nf] = exactEntry{cost: cost, a: uint8(a), b: uint8(b), leaf: -1}
					changed = true
				}
			}
		}
	}
}

// exact3Cost returns the optimal AND-tree cost of an 8-bit function.
func exact3Cost(f uint8) int {
	exact3.once.Do(buildExact3)
	return exact3.table[f].cost
}

// ExactStructure3 builds a minimum-AND-tree AIG for a function whose
// support has at most 3 variables, over the function's full variable
// count (input i of the result is variable i of f). The bool result is
// false when the support exceeds 3 variables.
func ExactStructure3(f tt.TT) (*aig.AIG, bool) {
	sup := f.Support()
	if len(sup) > 3 {
		return nil, false
	}
	// Compact the support into variables 0..len(sup)-1.
	perm := append([]int(nil), sup...)
	for v := 0; v < f.NumVars(); v++ {
		if !containsVar(sup, v) {
			perm = append(perm, v)
		}
	}
	cf := f.Permute(perm) // support now occupies variables 0..len(sup)-1
	if cf.NumVars() > 3 {
		cf = cf.Shrink(3)
	}
	cf = cf.Expand(3)
	exact3.once.Do(buildExact3)
	g := aig.New(f.NumVars())
	leaves := make([]aig.Lit, 3)
	for i := range leaves {
		if i < len(sup) {
			leaves[i] = g.PI(sup[i])
		} else {
			leaves[i] = aig.LitFalse
		}
	}
	out := buildExact3Lit(g, uint8(cf.Word(0)&0xFF), leaves)
	g.AddPO(out)
	return g.Cleanup(), true
}

func buildExact3Lit(g *aig.AIG, f uint8, leaves []aig.Lit) aig.Lit {
	switch f {
	case 0x00:
		return aig.LitFalse
	case 0xFF:
		return aig.LitTrue
	}
	e := exact3.table[f]
	if e.leaf >= 0 {
		// A literal: pattern or its complement.
		vars := [3]uint8{0xAA, 0xCC, 0xF0}
		l := leaves[e.leaf]
		if f == ^vars[e.leaf] {
			l = l.Not()
		}
		return l
	}
	// Derived: f == a&b or f == ~(a&b).
	la := buildExact3Lit(g, e.a, leaves)
	lb := buildExact3Lit(g, e.b, leaves)
	and := g.And(la, lb)
	if f == e.a&e.b {
		return and
	}
	return and.Not()
}

func containsVar(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
