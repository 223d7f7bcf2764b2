package aig

import "slices"

// Cut is a k-feasible cut of a node: a set of leaf node ids (sorted
// ascending) such that every path from the PIs to the node passes through
// a leaf. Sign is a 64-bit Bloom signature used for fast dominance tests.
type Cut struct {
	Leaves []int
	Sign   uint64
}

func cutSign(leaves []int) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint(l) & 63)
	}
	return s
}

// dominates reports whether cut a's leaves are a subset of cut b's.
func (a Cut) dominates(b Cut) bool {
	if len(a.Leaves) > len(b.Leaves) || a.Sign&^b.Sign != 0 {
		return false
	}
	i := 0
	for _, l := range b.Leaves {
		if i < len(a.Leaves) && a.Leaves[i] == l {
			i++
		}
	}
	return i == len(a.Leaves)
}

// mergeCuts unions two sorted leaf sets into buf's storage, failing when
// the result exceeds k; buf needs capacity k.
func mergeCuts(buf []int, a, b Cut, k int) (Cut, bool) {
	leaves := buf[:0]
	i, j := 0, 0
	for i < len(a.Leaves) || j < len(b.Leaves) {
		var next int
		switch {
		case i >= len(a.Leaves):
			next = b.Leaves[j]
			j++
		case j >= len(b.Leaves):
			next = a.Leaves[i]
			i++
		case a.Leaves[i] < b.Leaves[j]:
			next = a.Leaves[i]
			i++
		case a.Leaves[i] > b.Leaves[j]:
			next = b.Leaves[j]
			j++
		default:
			next = a.Leaves[i]
			i++
			j++
		}
		if len(leaves) == k {
			return Cut{}, false
		}
		leaves = append(leaves, next)
	}
	return Cut{Leaves: leaves, Sign: cutSign(leaves)}, true
}

// CutParams configures cut enumeration.
type CutParams struct {
	K       int // maximum leaves per cut
	MaxCuts int // cuts retained per node (priority cuts); 0 = default 8
}

func (p CutParams) maxCuts() int {
	if p.MaxCuts <= 0 {
		return 8
	}
	return p.MaxCuts
}

// EnumerateCuts computes k-feasible priority cuts for every node. The
// result is indexed by node id; each node's list begins with its trivial
// cut {node}. Dominated cuts are filtered and at most MaxCuts non-trivial
// cuts are kept per node, preferring smaller cuts. Candidates are merged
// into scratch reused across nodes; the kept cuts and their leaves are
// copied into slabs sized from the graph, so the lists share a few large
// allocations.
func (g *AIG) EnumerateCuts(p CutParams) [][]Cut {
	k := p.K
	if k < 2 {
		k = 4
	}
	maxCuts := p.maxCuts()
	all := make([][]Cut, g.NumObjs())
	var cutSlab []Cut
	var leafSlab []int
	nCuts, nLeaves := 0, 0
	// keep copies node id's trivial cut and cuts into the slabs. A full
	// slab stays with the lists already cut from it; the next is sized
	// for the remaining nodes at the rate used so far.
	keep := func(id int, cuts []Cut) {
		leaves := 1
		for _, c := range cuts {
			leaves += len(c.Leaves)
		}
		rest := g.NumObjs() - id
		if len(cutSlab)+1+len(cuts) > cap(cutSlab) {
			cutSlab = make([]Cut, 0, max(1+len(cuts), rest*(nCuts/(id+1)+1)))
		}
		if len(leafSlab)+leaves > cap(leafSlab) {
			leafSlab = make([]int, 0, max(leaves, rest*(nLeaves/(id+1)+2)))
		}
		nCuts, nLeaves = nCuts+1+len(cuts), nLeaves+leaves
		start := len(cutSlab)
		for i := -1; i < len(cuts); i++ { // i = -1: the trivial cut {id}
			n := len(leafSlab)
			if i < 0 {
				leafSlab = append(leafSlab, id)
			} else {
				leafSlab = append(leafSlab, cuts[i].Leaves...)
			}
			c := leafSlab[n:len(leafSlab):len(leafSlab)]
			cutSlab = append(cutSlab, Cut{Leaves: c, Sign: cutSign(c)})
		}
		all[id] = cutSlab[start:len(cutSlab):len(cutSlab)]
	}
	for id := 0; id <= g.numPIs; id++ {
		keep(id, nil)
	}
	// Every merge of a node gets its own k-slot region of scratch, so its
	// candidates never overwrite one another.
	merges := (maxCuts + 1) * (maxCuts + 1)
	scratch, cuts := make([]int, merges*k), make([]Cut, 0, merges)
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		c0 := all[g.fanin0[id].Node()]
		c1 := all[g.fanin1[id].Node()]
		cuts = cuts[:0]
		for i, a := range c0 {
			for j, b := range c1 {
				at := (i*len(c1) + j) * k
				m, ok := mergeCuts(scratch[at:at:at+k], a, b, k)
				if !ok {
					continue
				}
				dominated := false
				for _, c := range cuts {
					if c.dominates(m) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				// Remove cuts the new one dominates.
				kept := cuts[:0]
				for _, c := range cuts {
					if !m.dominates(c) {
						kept = append(kept, c)
					}
				}
				cuts = append(kept, m)
			}
		}
		// Keep the best cuts by size (stable: enumeration order breaks ties).
		if len(cuts) > maxCuts {
			sortCutsBySize(cuts)
			cuts = cuts[:maxCuts]
		}
		keep(id, cuts)
	}
	return all
}

func sortCutsBySize(cuts []Cut) {
	// Insertion sort: lists are tiny and mostly ordered.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && len(cuts[j].Leaves) < len(cuts[j-1].Leaves); j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
}

// ReconvCut grows a reconvergence-driven cut of node root with at most
// maxLeaves leaves, in the style of ABC's refactoring: starting from the
// trivial cut, it repeatedly expands the leaf whose expansion adds the
// fewest new leaves, preferring expansions that reduce or preserve the
// leaf count. The leaf set and the visited set are small slices, so the
// returned leaves are its only allocation in the common case.
func (g *AIG) ReconvCut(root int, maxLeaves int) []int {
	leaves := append(make([]int, 0, max(maxLeaves, 1)+2), root)
	var visitedBuf [64]int
	visited := append(visitedBuf[:0], root)

	cost := func(id int) int {
		// Number of fanins not already visited; PIs cannot be expanded.
		if !g.IsAnd(id) {
			return 1 << 30
		}
		c := 0
		if !slices.Contains(visited, g.fanin0[id].Node()) {
			c++
		}
		if !slices.Contains(visited, g.fanin1[id].Node()) {
			c++
		}
		return c
	}

	for {
		best, bestCost := -1, 1<<30
		for _, l := range leaves {
			if c := cost(l); c < bestCost {
				best, bestCost = l, c
			}
		}
		if best == -1 || bestCost >= 1<<30 {
			break
		}
		if len(leaves)-1+bestCost > maxLeaves {
			break
		}
		// Expand best: replace it with its fanins.
		kept := leaves[:0]
		for _, l := range leaves {
			if l != best {
				kept = append(kept, l)
			}
		}
		leaves = kept
		for _, f := range [2]Lit{g.fanin0[best], g.fanin1[best]} {
			fid := f.Node()
			if !slices.Contains(visited, fid) {
				visited = append(visited, fid)
			}
			if !slices.Contains(leaves, fid) {
				leaves = append(leaves, fid)
			}
		}
	}
	// Sort ascending for deterministic downstream use.
	slices.Sort(leaves)
	return leaves
}
