package aig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// cleanupOracle is the output-driven copy Cleanup made before it became
// Rebuild(nil): a literal map with an unbuilt sentinel and a recursive
// build from the outputs, fanin0 first.
func cleanupOracle(g *AIG) *AIG {
	ng := New(g.numPIs)
	ng.piNames = append([]string(nil), g.piNames...)
	ng.poNames = append([]string(nil), g.poNames...)
	m := make([]Lit, g.NumObjs())
	for i := range m {
		m[i] = Lit(0xFFFFFFFF)
	}
	m[0] = LitFalse
	for i := 1; i <= g.numPIs; i++ {
		m[i] = MakeLit(i, false)
	}
	var build func(id int) Lit
	build = func(id int) Lit {
		if m[id] != Lit(0xFFFFFFFF) {
			return m[id]
		}
		f0 := build(g.fanin0[id].Node()).NotCond(g.fanin0[id].IsCompl())
		f1 := build(g.fanin1[id].Node()).NotCond(g.fanin1[id].IsCompl())
		l := ng.And(f0, f1)
		m[id] = l
		return l
	}
	for _, po := range g.pos {
		ng.AddPO(build(po.Node()).NotCond(po.IsCompl()))
	}
	return ng
}

// danglingAIG returns a random AIG of n inputs whose outputs read only
// some of its AND nodes, with some inputs and outputs named.
func danglingAIG(n int, r *rand.Rand) *AIG {
	g := New(n)
	lits := []Lit{LitFalse}
	for i := 0; i < n; i++ {
		lits = append(lits, g.PI(i))
		if r.Intn(2) == 0 {
			g.SetPIName(i, fmt.Sprintf("in%d", i))
		}
	}
	for len(lits) < n+40 {
		a := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 1)
		b := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 3; i++ {
		g.AddPO(lits[len(lits)/2+r.Intn(len(lits)/2)].NotCond(r.Intn(2) == 1))
		if i != 1 {
			g.SetPOName(i, fmt.Sprintf("out%d", i))
		}
	}
	g.AddPO(g.PI(0).Not())
	g.AddPO(LitTrue)
	return g
}

// sameAIG reports the first difference between two AIGs, node for node,
// or "" when they are identical.
func sameAIG(a, b *AIG) string {
	switch {
	case a.NumPIs() != b.NumPIs() || a.NumObjs() != b.NumObjs() || a.NumPOs() != b.NumPOs():
		return fmt.Sprintf("shape %v vs %v", a.Stat(), b.Stat())
	case !slices.Equal(a.fanin0, b.fanin0) || !slices.Equal(a.fanin1, b.fanin1):
		return "fanins differ"
	case !slices.Equal(a.level, b.level):
		return "levels differ"
	case !slices.Equal(a.pos, b.pos):
		return fmt.Sprintf("outputs %v vs %v", a.pos, b.pos)
	case !slices.Equal(a.piNames, b.piNames) || !slices.Equal(a.poNames, b.poNames):
		return "names differ"
	}
	return ""
}

// reachable returns the AND nodes reachable from g's outputs.
func reachable(g *AIG) map[int]bool {
	seen := map[int]bool{}
	var walk func(id int)
	walk = func(id int) {
		if !g.IsAnd(id) || seen[id] {
			return
		}
		seen[id] = true
		walk(g.fanin0[id].Node())
		walk(g.fanin1[id].Node())
	}
	for _, po := range g.pos {
		walk(po.Node())
	}
	return seen
}

// TestRebuildNilMatchesCleanupOracle requires Rebuild(nil), and so
// Cleanup, to equal the old output-driven copy node for node on graphs
// with dangling logic.
func TestRebuildNilMatchesCleanupOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		g := danglingAIG(2+trial%8, r)
		want := cleanupOracle(g)
		if want.NumAnds() == g.NumAnds() {
			t.Fatalf("trial %d: setup has no dangling logic", trial)
		}
		if diff := sameAIG(g.Rebuild(nil), want); diff != "" {
			t.Fatalf("trial %d: Rebuild(nil) differs from the oracle: %s", trial, diff)
		}
		if diff := sameAIG(g.Cleanup(), want); diff != "" {
			t.Fatalf("trial %d: Cleanup differs from the oracle: %s", trial, diff)
		}
	}
}

// TestRebuildKeepsNamesAndDropsDeadCones checks that names and PO order
// survive a rebuild, that only output-reachable AND nodes are copied,
// and that the copy computes the same outputs.
func TestRebuildKeepsNamesAndDropsDeadCones(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	g := danglingAIG(6, r)
	ng := g.Rebuild(nil)
	for i := 0; i < g.NumPIs(); i++ {
		if ng.PIName(i) != g.PIName(i) {
			t.Errorf("PI %d named %q, want %q", i, ng.PIName(i), g.PIName(i))
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		if ng.POName(i) != g.POName(i) {
			t.Errorf("PO %d named %q, want %q", i, ng.POName(i), g.POName(i))
		}
	}
	if want := len(reachable(g)); ng.NumAnds() != want {
		t.Errorf("rebuild kept %d AND nodes, %d are reachable", ng.NumAnds(), want)
	}
	if err := ng.CheckStrict(); err != nil {
		t.Error(err)
	}
	if idx, err := Equivalent(g, ng); err != nil || idx != -1 {
		t.Errorf("rebuild changed output %d (err %v)", idx, err)
	}
}

// TestRebuildReplaceOncePerReachedNode checks that replace sees every
// reached AND node exactly once, that build is memoized, and that a
// replaced node's cone is reached only through what replace builds.
func TestRebuildReplaceOncePerReachedNode(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	g := danglingAIG(7, r)
	calls := map[int]int{}
	ng := g.Rebuild(func(ng *AIG, id int, build func(int) Lit) (Lit, bool) {
		calls[id]++
		f0, f1 := g.Fanins(id)
		a := build(f0.Node())
		if again := build(f0.Node()); again != a {
			t.Errorf("build(%d) gave %v, then %v", f0.Node(), a, again)
		}
		// Replace every node by its fanins' AND with the operands swapped.
		return ng.And(build(f1.Node()).NotCond(f1.IsCompl()), a.NotCond(f0.IsCompl())), true
	})
	want := reachable(g)
	for id, n := range calls {
		if n != 1 || !want[id] {
			t.Errorf("replace called %d times on node %d (reachable %v)", n, id, want[id])
		}
	}
	if len(calls) != len(want) {
		t.Errorf("replace called on %d nodes, %d are reachable", len(calls), len(want))
	}
	if idx, err := Equivalent(g, ng); err != nil || idx != -1 {
		t.Errorf("rebuild changed output %d (err %v)", idx, err)
	}

	// Replacing the root of a chain by an AND over its inputs hides the
	// chain: replace sees only the root.
	h := New(3)
	ab := h.And(h.PI(0), h.PI(1))
	abc := h.And(ab, h.PI(2))
	h.AddPO(abc.Not())
	var seen []int
	nh := h.Rebuild(func(ng *AIG, id int, build func(int) Lit) (Lit, bool) {
		seen = append(seen, id)
		if id != abc.Node() {
			return 0, false
		}
		return ng.And(build(3), ng.And(build(1), build(2))), true
	})
	if !slices.Equal(seen, []int{abc.Node()}) {
		t.Errorf("replace saw nodes %v, want only the root %d", seen, abc.Node())
	}
	if idx, err := Equivalent(h, nh); err != nil || idx != -1 {
		t.Errorf("rebuild changed output %d (err %v)", idx, err)
	}
}
