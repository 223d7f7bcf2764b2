package aig

import (
	"math/rand"
	"testing"

	"repro/internal/tt"
)

func TestEnumerateCutsTrivial(t *testing.T) {
	g := New(2)
	n := g.And(g.PI(0), g.PI(1))
	g.AddPO(n)
	cuts := g.EnumerateCuts(CutParams{K: 4})
	nodeCuts := cuts[n.Node()]
	if len(nodeCuts) < 2 {
		t.Fatalf("expected trivial + leaf cut, got %d", len(nodeCuts))
	}
	if len(nodeCuts[0].Leaves) != 1 || nodeCuts[0].Leaves[0] != n.Node() {
		t.Error("first cut must be the trivial cut")
	}
	found := false
	for _, c := range nodeCuts[1:] {
		if len(c.Leaves) == 2 && c.Leaves[0] == 1 && c.Leaves[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("PI cut {1,2} not found")
	}
}

// cutIsValid checks the defining property: recomputing the node function
// from the cut leaves reproduces the node's global function.
func cutIsValid(t *testing.T, g *AIG, tabs []tt.TT, node int, cut Cut) {
	t.Helper()
	if len(cut.Leaves) > 8 {
		return
	}
	local := g.CutTT(node, cut.Leaves)
	// Compose: substitute leaf tables into local function.
	n := g.NumPIs()
	composed := tt.New(n)
	for m := 0; m < local.NumBits(); m++ {
		if !local.Bit(m) {
			continue
		}
		// Minterm m of the local space corresponds to the set of global
		// assignments where each leaf i equals bit i of m.
		part := tt.Const(n, true)
		for i, leaf := range cut.Leaves {
			lt := tabs[leaf]
			if m>>uint(i)&1 == 0 {
				lt = lt.Not()
			}
			part = part.And(lt)
		}
		composed = composed.Or(part)
	}
	if !composed.Equal(tabs[node]) {
		t.Fatalf("cut %v of node %d is not functionally valid", cut.Leaves, node)
	}
}

func TestEnumerateCutsValidity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomAIG(6, 50, r)
	tabs := g.SimAll()
	cuts := g.EnumerateCuts(CutParams{K: 4, MaxCuts: 6})
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		for _, c := range cuts[id] {
			if len(c.Leaves) > 4+1 { // trivial cut may be 1; others <= K
				t.Fatalf("node %d cut %v exceeds K", id, c.Leaves)
			}
			cutIsValid(t, g, tabs, id, c)
		}
	}
}

func TestEnumerateCutsLimit(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomAIG(8, 120, r)
	cuts := g.EnumerateCuts(CutParams{K: 4, MaxCuts: 5})
	for id := range cuts {
		nontrivial := len(cuts[id]) - 1
		if nontrivial > 5 {
			t.Fatalf("node %d keeps %d cuts, limit 5", id, nontrivial)
		}
	}
}

func TestCutDominance(t *testing.T) {
	a := Cut{Leaves: []int{1, 2}, Sign: cutSign([]int{1, 2})}
	b := Cut{Leaves: []int{1, 2, 3}, Sign: cutSign([]int{1, 2, 3})}
	if !a.dominates(b) {
		t.Error("subset should dominate superset")
	}
	if b.dominates(a) {
		t.Error("superset should not dominate subset")
	}
	c := Cut{Leaves: []int{1, 4}, Sign: cutSign([]int{1, 4})}
	if a.dominates(c) || c.dominates(a) {
		t.Error("incomparable cuts should not dominate")
	}
}

func TestMergeCutsOverflow(t *testing.T) {
	a := Cut{Leaves: []int{1, 2, 3}, Sign: cutSign([]int{1, 2, 3})}
	b := Cut{Leaves: []int{4, 5}, Sign: cutSign([]int{4, 5})}
	if _, ok := mergeCuts(nil, a, b, 4); ok {
		t.Error("merge exceeding K should fail")
	}
	m, ok := mergeCuts(nil, a, b, 5)
	if !ok || len(m.Leaves) != 5 {
		t.Error("merge within K should succeed")
	}
	// Overlapping merge.
	c := Cut{Leaves: []int{2, 3, 4}, Sign: cutSign([]int{2, 3, 4})}
	m2, ok := mergeCuts(nil, a, c, 4)
	if !ok || len(m2.Leaves) != 4 {
		t.Errorf("overlap merge = %v ok=%v", m2.Leaves, ok)
	}
}

func TestReconvCut(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	g := randomAIG(8, 80, r)
	tabs := g.SimAll()
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		leaves := g.ReconvCut(id, 6)
		if len(leaves) > 6+1 {
			t.Fatalf("node %d: reconv cut has %d leaves", id, len(leaves))
		}
		for i := 1; i < len(leaves); i++ {
			if leaves[i] <= leaves[i-1] {
				t.Fatalf("node %d: leaves not sorted: %v", id, leaves)
			}
		}
		cutIsValid(t, g, tabs, id, Cut{Leaves: leaves, Sign: cutSign(leaves)})
	}
}
