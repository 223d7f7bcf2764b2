package aig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tt"
)

// The oracles below are the straightforward kernels CutTT, EnumerateCuts,
// ReconvCut and SimAll replaced: a map and a recursive closure per cone,
// a fresh slice per merged cut, map-based leaf and visited sets, and a
// table per complemented fanin. The production kernels must answer
// exactly as they do.

// simAllOracle simulates every node by complementing each fanin's table
// with Not before the And.
func simAllOracle(g *AIG) []tt.TT {
	n := g.numPIs
	tabs := make([]tt.TT, g.NumObjs())
	tabs[0] = tt.New(n)
	for i := 1; i <= n; i++ {
		tabs[i] = tt.Var(i-1, n)
	}
	for id := n + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a := tabs[f0.Node()]
		if f0.IsCompl() {
			a = a.Not()
		}
		b := tabs[f1.Node()]
		if f1.IsCompl() {
			b = b.Not()
		}
		tabs[id] = a.And(b)
	}
	return tabs
}

// cutTTOracle evaluates the cone of root over leaves through a memo map.
func cutTTOracle(g *AIG, root int, leaves []int) tt.TT {
	n := len(leaves)
	local := make(map[int]tt.TT, len(leaves)*2)
	for i, leaf := range leaves {
		local[leaf] = tt.Var(i, n)
	}
	var eval func(id int) tt.TT
	eval = func(id int) tt.TT {
		if t, ok := local[id]; ok {
			return t
		}
		if !g.IsAnd(id) {
			panic(fmt.Sprintf("aig: CutTT reached non-AND node %d outside the cut", id))
		}
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a := eval(f0.Node())
		if f0.IsCompl() {
			a = a.Not()
		}
		b := eval(f1.Node())
		if f1.IsCompl() {
			b = b.Not()
		}
		t := a.And(b)
		local[id] = t
		return t
	}
	return eval(root)
}

// mergeCutsOracle unions two sorted leaf sets into a fresh slice.
func mergeCutsOracle(a, b Cut, k int) (Cut, bool) {
	leaves := make([]int, 0, k)
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

// enumerateCutsOracle builds every node's list with its own slices.
func enumerateCutsOracle(g *AIG, p CutParams) [][]Cut {
	k := p.K
	if k < 2 {
		k = 4
	}
	maxCuts := p.maxCuts()
	all := make([][]Cut, g.NumObjs())
	trivial := func(id int) Cut {
		return Cut{Leaves: []int{id}, Sign: cutSign([]int{id})}
	}
	for id := 0; id <= g.numPIs; id++ {
		all[id] = []Cut{trivial(id)}
	}
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		var cuts []Cut
		for _, a := range all[g.fanin0[id].Node()] {
			for _, b := range all[g.fanin1[id].Node()] {
				m, ok := mergeCutsOracle(a, b, k)
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
				kept := cuts[:0]
				for _, c := range cuts {
					if !m.dominates(c) {
						kept = append(kept, c)
					}
				}
				cuts = append(kept, m)
			}
		}
		if len(cuts) > maxCuts {
			sortCutsBySize(cuts)
			cuts = cuts[:maxCuts]
		}
		all[id] = append([]Cut{trivial(id)}, cuts...)
	}
	return all
}

// reconvCutOracle grows the cut with map-based leaf and visited sets.
func reconvCutOracle(g *AIG, root int, maxLeaves int) []int {
	leaves := []int{root}
	inCut := map[int]bool{root: true}
	visited := map[int]bool{root: true}
	cost := func(id int) int {
		if !g.IsAnd(id) {
			return 1 << 30
		}
		c := 0
		if !visited[g.fanin0[id].Node()] {
			c++
		}
		if !visited[g.fanin1[id].Node()] {
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
		if best == -1 || bestCost >= 1<<30 || len(leaves)-1+bestCost > maxLeaves {
			break
		}
		kept := leaves[:0]
		for _, l := range leaves {
			if l != best {
				kept = append(kept, l)
			}
		}
		leaves = kept
		delete(inCut, best)
		for _, f := range []Lit{g.fanin0[best], g.fanin1[best]} {
			fid := f.Node()
			visited[fid] = true
			if !inCut[fid] {
				inCut[fid] = true
				leaves = append(leaves, fid)
			}
		}
	}
	for i := 1; i < len(leaves); i++ {
		for j := i; j > 0 && leaves[j] < leaves[j-1]; j-- {
			leaves[j], leaves[j-1] = leaves[j-1], leaves[j]
		}
	}
	return leaves
}

// TestKernelsMatchOracles compares the cut kernels with their oracles
// on every node of random AIGs: the enumerated cuts at K = 4 and 6, the
// reconvergence-driven cut of 10 leaves, and the table of every such
// cut — 2 to 10 leaves, so both table forms are evaluated.
func TestKernelsMatchOracles(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		g := randomAIG(6+trial, 120+40*trial, r)
		checkTT := func(id int, leaves []int) {
			t.Helper()
			if got, want := g.CutTT(id, leaves), cutTTOracle(g, id, leaves); !got.Equal(want) {
				t.Fatalf("trial %d node %d leaves %v: CutTT %s, oracle %s", trial, id, leaves, got.Hex(), want.Hex())
			}
		}
		for _, k := range []int{4, 6} {
			p := CutParams{K: k}
			got, want := g.EnumerateCuts(p), enumerateCutsOracle(g, p)
			for id := range want {
				if !slices.EqualFunc(got[id], want[id], func(a, b Cut) bool {
					return a.Sign == b.Sign && slices.Equal(a.Leaves, b.Leaves)
				}) {
					t.Fatalf("trial %d K=%d node %d: cuts %v, oracle %v", trial, k, id, got[id], want[id])
				}
				for _, c := range got[id] {
					if len(c.Leaves) >= 2 {
						checkTT(id, c.Leaves)
					}
				}
			}
		}
		for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
			leaves := g.ReconvCut(id, 10)
			if want := reconvCutOracle(g, id, 10); !slices.Equal(leaves, want) {
				t.Fatalf("trial %d node %d: ReconvCut %v, oracle %v", trial, id, leaves, want)
			}
			checkTT(id, leaves)
		}
	}
}

// TestSimAllMatchesOracle compares SimAll with its oracle, table for
// table, on random AIGs of 1 to 12 inputs: one-word tables up to 6
// inputs, multi-word ones above.
func TestSimAllMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for pis := 1; pis <= 12; pis++ {
		g := randomAIG(pis, 20*pis, r)
		got, want := g.SimAll(), simAllOracle(g)
		for id := range want {
			if !got[id].Equal(want[id]) {
				t.Fatalf("%d inputs, node %d: SimAll %s, oracle %s", pis, id, got[id].Hex(), want[id].Hex())
			}
		}
	}
}

// TestCutKernelAllocations pins the allocation budgets of the kernels
// on a fixed AIG: CutTT over at most 6 leaves and ReconvCut allocate at
// most once, and EnumerateCuts makes fewer allocations than a quarter of
// the graph's nodes.
func TestCutKernelAllocations(t *testing.T) {
	g := randomAIG(8, 300, rand.New(rand.NewSource(72)))
	cuts := g.EnumerateCuts(CutParams{K: 6})
	worst := 0.0
	for id := g.NumPIs() + 1; id < g.NumObjs(); id += 7 {
		for _, c := range cuts[id][1:] {
			if a := testing.AllocsPerRun(20, func() { g.CutTT(id, c.Leaves) }); a > worst {
				worst = a
			}
		}
		if a := testing.AllocsPerRun(20, func() { g.ReconvCut(id, 10) }); a > 1 {
			t.Errorf("ReconvCut(%d) made %v allocations, want at most 1", id, a)
		}
	}
	if worst > 1 {
		t.Errorf("CutTT over at most 6 leaves made %v allocations, want at most 1", worst)
	}
	if a := testing.AllocsPerRun(5, func() { g.EnumerateCuts(CutParams{K: 6}) }); a >= float64(g.NumObjs())/4 {
		t.Errorf("EnumerateCuts made %v allocations on %d nodes, want fewer than a quarter", a, g.NumObjs())
	}
}
