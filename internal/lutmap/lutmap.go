// Package lutmap implements area-oriented k-LUT technology mapping with
// priority cuts and area-flow, plus the LUT-to-AIG resynthesis round trip
// used by the DeepSyn flow: mapping an AIG into LUTs and resynthesizing
// every LUT function produces the broad structural changes the paper
// credits &deepsyn with.
package lutmap

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// Options tunes the mapper.
type Options struct {
	// K is the LUT input count (2..6; default 4).
	K int
}

// rounds is the number of area-flow refinement rounds.
const rounds = 2

func (o Options) k() int {
	switch {
	case o.K < 2:
		return 4
	case o.K > 6:
		return 6
	}
	return o.K
}

// LUT is one mapped look-up table: a root node covering logic down to its
// leaf nodes, with the local function over the leaves.
type LUT struct {
	Root   int
	Leaves []int
	Func   tt.TT
}

// Mapping is the result of covering an AIG with LUTs.
type Mapping struct {
	LUTs []LUT // in topological order of their roots
	// RootOf maps each mapped root node id to its LUT index.
	RootOf map[int]int
}

// Map covers the AIG with k-input LUTs using area-flow-guided priority
// cuts: every node selects its best cut over a few refinement rounds, and
// a cover is extracted from the outputs.
func Map(g *aig.AIG, opts Options) Mapping {
	k := opts.k()
	cuts := g.EnumerateCuts(aig.CutParams{K: k})
	refs := g.RefCounts()

	n := g.NumObjs()
	bestCut := make([]int, n) // index into cuts[id]
	areaFlow := make([]float64, n)

	for round := 0; round < rounds; round++ {
		for id := 0; id < n; id++ {
			if !g.IsAnd(id) {
				areaFlow[id] = 0
				continue
			}
			bestAF := -1.0
			bestIdx := -1
			for ci, cut := range cuts[id] {
				if len(cut.Leaves) == 1 && cut.Leaves[0] == id {
					continue // trivial cut cannot implement the node
				}
				af := 1.0
				for _, leaf := range cut.Leaves {
					fan := refs[leaf]
					if fan < 1 {
						fan = 1
					}
					af += areaFlow[leaf] / float64(fan)
				}
				if bestIdx == -1 || af < bestAF {
					bestAF, bestIdx = af, ci
				}
			}
			if bestIdx == -1 {
				panic(fmt.Sprintf("lutmap: node %d has no non-trivial cut", id))
			}
			bestCut[id] = bestIdx
			areaFlow[id] = bestAF
		}
	}

	// Extract the cover from the POs.
	mapping := Mapping{RootOf: make(map[int]int)}
	var visit func(id int)
	visit = func(id int) {
		if !g.IsAnd(id) {
			return
		}
		if _, done := mapping.RootOf[id]; done {
			return
		}
		cut := cuts[id][bestCut[id]]
		for _, leaf := range cut.Leaves {
			visit(leaf)
		}
		mapping.RootOf[id] = len(mapping.LUTs)
		mapping.LUTs = append(mapping.LUTs, LUT{
			Root:   id,
			Leaves: append([]int(nil), cut.Leaves...),
			Func:   g.CutTT(id, cut.Leaves),
		})
	}
	for i := 0; i < g.NumPOs(); i++ {
		visit(g.PO(i).Node())
	}
	return mapping
}

// Resynthesize converts a LUT mapping back into an AIG, synthesizing each
// LUT function with the multi-paradigm resynthesis engine (NPN library
// for functions up to 4 inputs, memoized best-structure search above).
// The round trip AIG -> LUTs -> AIG is the structural shake-up move of
// the DeepSyn flow. The rebuild (aig.Rebuild) replaces every mapped
// root it reaches by its LUT's structure over the leaves' new literals
// and copies any other node from its fanins; Cleanup then drops what
// the LUT structures left unused.
func Resynthesize(g *aig.AIG, m Mapping) *aig.AIG {
	return g.Rebuild(func(ng *aig.AIG, id int, build func(int) aig.Lit) (aig.Lit, bool) {
		i, ok := m.RootOf[id]
		if !ok {
			return 0, false
		}
		lut := m.LUTs[i]
		leafLits := make([]aig.Lit, len(lut.Leaves))
		for j, leaf := range lut.Leaves {
			leafLits[j] = build(leaf)
		}
		return buildLUT(ng, lut.Func, leafLits), true
	}).Cleanup()
}

func buildLUT(ng *aig.AIG, f tt.TT, leaves []aig.Lit) aig.Lit {
	if f.IsConst0() {
		return aig.LitFalse
	}
	if f.IsConst1() {
		return aig.LitTrue
	}
	return synth.Instantiate(ng, synth.LUTStructure(f), leaves)
}

// RoundTrip maps and immediately resynthesizes, the one-call shake-up.
func RoundTrip(g *aig.AIG, opts Options) *aig.AIG {
	return Resynthesize(g, Map(g, opts))
}
