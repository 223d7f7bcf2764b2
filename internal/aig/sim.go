package aig

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/tt"
)

// SimAll computes the complete truth table of every node over the primary
// inputs by exhaustive simulation. The result is indexed by node id and is
// the table of the plain (non-complemented) literal. Practical up to
// roughly 16 inputs.
func (g *AIG) SimAll() []tt.TT {
	n := g.numPIs
	if n > tt.MaxVars {
		panic(fmt.Sprintf("aig: SimAll limited to %d inputs, got %d", tt.MaxVars, n))
	}
	tabs := make([]tt.TT, g.NumObjs())
	tabs[0] = tt.New(n)
	for i := 1; i <= n; i++ {
		tabs[i] = tt.Var(i-1, n)
	}
	for id := n + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		tabs[id] = tabs[f0.Node()].AndCompl(f0.IsCompl(), tabs[f1.Node()], f1.IsCompl())
	}
	return tabs
}

// LitTT returns the truth table of literal l given per-node tables from
// SimAll.
func LitTT(tabs []tt.TT, l Lit) tt.TT {
	t := tabs[l.Node()]
	if l.IsCompl() {
		return t.Not()
	}
	return t
}

// OutputTTs returns the truth table of every primary output.
func (g *AIG) OutputTTs() []tt.TT {
	tabs := g.SimAll()
	out := make([]tt.TT, g.NumPOs())
	for i, po := range g.pos {
		out[i] = LitTT(tabs, po)
	}
	return out
}

// Equivalent reports whether two AIGs with identical PI/PO counts compute
// the same functions, by exhaustive simulation. It returns the index of
// the first differing output, or -1 when equivalent. AIGs with more than
// tt.MaxVars inputs are beyond exhaustive simulation and yield an error.
func Equivalent(a, b *AIG) (int, error) {
	if a.NumPIs() != b.NumPIs() {
		return -1, fmt.Errorf("aig: PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPIs() > tt.MaxVars {
		return -1, fmt.Errorf("aig: exhaustive equivalence limited to %d inputs, got %d", tt.MaxVars, a.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return -1, fmt.Errorf("aig: PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	ta, tb := a.OutputTTs(), b.OutputTTs()
	for i := range ta {
		if !ta[i].Equal(tb[i]) {
			return i, nil
		}
	}
	return -1, nil
}

// EquivalentToTTs reports whether the AIG computes exactly the given
// output truth tables, by exhaustive simulation. It returns the index of
// the first differing output, or -1 when every output matches. This is
// the harness's load-bearing guardrail: every synthesized and optimized
// AIG is checked against its specification before it may contribute to
// the diversity analysis.
func (g *AIG) EquivalentToTTs(spec []tt.TT) (int, error) {
	if len(spec) != g.NumPOs() {
		return -1, fmt.Errorf("aig: PO count mismatch: %d vs %d spec outputs", g.NumPOs(), len(spec))
	}
	if len(spec) > 0 && spec[0].NumVars() != g.NumPIs() {
		return -1, fmt.Errorf("aig: PI count mismatch: %d vs %d spec vars", g.NumPIs(), spec[0].NumVars())
	}
	tabs := g.OutputTTs()
	for i := range tabs {
		if !tabs[i].Equal(spec[i]) {
			return i, nil
		}
	}
	return -1, nil
}

// SimVector simulates the AIG on 64 input patterns packed bitwise: pat[i]
// holds the 64 values of PI i. The result holds one word per node, plus
// the complement convention of SimAll.
func (g *AIG) SimVector(pat []uint64) []uint64 {
	if len(pat) != g.numPIs {
		panic("aig: SimVector pattern width mismatch")
	}
	vals := make([]uint64, g.NumObjs())
	for i := 1; i <= g.numPIs; i++ {
		vals[i] = pat[i-1]
	}
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a := vals[f0.Node()]
		if f0.IsCompl() {
			a = ^a
		}
		b := vals[f1.Node()]
		if f1.IsCompl() {
			b = ^b
		}
		vals[id] = a & b
	}
	return vals
}

// RandomSimCheck compares two AIGs on rounds*64 random patterns and
// reports the first output found to differ, or -1. It is a fast filter
// for large designs where exhaustive simulation is infeasible.
func RandomSimCheck(a, b *AIG, rounds int, r *rand.Rand) (int, error) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return -1, fmt.Errorf("aig: interface mismatch")
	}
	pat := make([]uint64, a.NumPIs())
	for k := 0; k < rounds; k++ {
		for i := range pat {
			pat[i] = r.Uint64()
		}
		va, vb := a.SimVector(pat), b.SimVector(pat)
		for i := range a.pos {
			la, lb := a.pos[i], b.pos[i]
			wa := va[la.Node()]
			if la.IsCompl() {
				wa = ^wa
			}
			wb := vb[lb.Node()]
			if lb.IsCompl() {
				wb = ^wb
			}
			if wa != wb {
				return i, nil
			}
		}
	}
	return -1, nil
}

// EquivRounds is the number of 64-pattern random simulation rounds
// CheckEquivalence runs above tt.MaxVars inputs.
const EquivRounds = 256

// The outcomes of CheckEquivalence. Their values are the exit statuses
// of aigsim -equiv and aigopt -verify.
const (
	EquivProved       = 0 // every output agrees on every input pattern
	EquivRefuted      = 1 // some output differs
	EquivInconclusive = 3 // no output differs on random patterns alone
)

// CheckEquivalence compares a and b and returns a one-line verdict with
// its outcome. Only exhaustive simulation proves equivalence: above
// tt.MaxVars inputs, EquivRounds rounds of seeded random simulation can
// refute it, and otherwise the verdict is EquivInconclusive.
func CheckEquivalence(a, b *AIG) (string, int, error) {
	var idx int
	var err error
	if a.NumPIs() <= tt.MaxVars {
		idx, err = Equivalent(a, b)
	} else {
		idx, err = RandomSimCheck(a, b, EquivRounds, rand.New(rand.NewSource(1)))
	}
	switch {
	case err != nil:
		return "", EquivRefuted, err
	case idx != -1:
		return fmt.Sprintf("NOT EQUIVALENT: output %d differs", idx), EquivRefuted, nil
	case a.NumPIs() > tt.MaxVars:
		return fmt.Sprintf("INCONCLUSIVE: no output differs on %d random patterns, but %d inputs exceed the exhaustive limit of %d",
			EquivRounds*64, a.NumPIs(), tt.MaxVars), EquivInconclusive, nil
	}
	return "equivalent", EquivProved, nil
}

// Eval evaluates all outputs on a single assignment, where bit i of input
// holds the value of PI i.
func (g *AIG) Eval(input uint64) []bool {
	pat := make([]uint64, g.numPIs)
	for i := range pat {
		if input>>uint(i)&1 == 1 {
			pat[i] = ^uint64(0)
		}
	}
	vals := g.SimVector(pat)
	out := make([]bool, g.NumPOs())
	for i, po := range g.pos {
		w := vals[po.Node()]
		if po.IsCompl() {
			w = ^w
		}
		out[i] = w&1 == 1
	}
	return out
}

// CutTT computes the local truth table of node root expressed over the
// given cut leaves (at most tt.MaxVars of them). Leaves are node ids; the
// i-th leaf becomes variable i. It collects the cone between root and the
// leaves, then evaluates it in ascending node id, a topological order,
// into one word slab that holds the leaves' tables first; a cone of up to
// 64 nodes over at most 6 leaves needs no heap at all.
func (g *AIG) CutTT(root int, leaves []int) tt.TT {
	n, nw := len(leaves), tt.WordCount(len(leaves))
	var coneBuf, stackBuf [64]int
	cone, stack := coneBuf[:0], append(stackBuf[:0], root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if slices.Contains(leaves, id) || slices.Contains(cone, id) {
			continue
		}
		if !g.IsAnd(id) {
			panic(fmt.Sprintf("aig: CutTT reached non-AND node %d outside the cut", id))
		}
		cone = append(cone, id)
		stack = append(stack, g.fanin1[id].Node(), g.fanin0[id].Node())
	}
	slices.Sort(cone)
	// slot is the slab position of a leaf or cone node's table.
	slot := func(id int) int {
		if i := slices.Index(leaves, id); i >= 0 {
			return i * nw
		}
		i, _ := slices.BinarySearch(cone, id)
		return (n + i) * nw
	}
	var slabBuf [128]uint64
	slab := slabBuf[:]
	if need := (n + len(cone)) * nw; need > len(slab) {
		slab = make([]uint64, need)
	}
	for i := range leaves {
		v := tt.Var(i, n)
		for j := 0; j < nw; j++ {
			slab[i*nw+j] = v.Word(j)
		}
	}
	for k, id := range cone {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a, b, dst := slot(f0.Node()), slot(f1.Node()), (n+k)*nw
		for j := 0; j < nw; j++ {
			x, y := slab[a+j], slab[b+j]
			if f0.IsCompl() {
				x = ^x
			}
			if f1.IsCompl() {
				y = ^y
			}
			slab[dst+j] = x & y
		}
	}
	r := slot(root)
	return tt.FromWords(n, slab[r:r+nw])
}
