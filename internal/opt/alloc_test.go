package opt

import (
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/tt"
)

// TestPassAllocationBudget pins how many heap allocations one rewriting
// and one refactoring pass make over a fixed 6-input AIG, with the
// structure caches warm. The budgets sit about 25% above the measured
// counts (rewrite 65, refactor 285; 72 and 293 with Go's classic map,
// GOEXPERIMENT=noswissmap, with or without -race). An Instantiate that
// allocated its literal map per call made 74 and 291 (80 and 296).
// Kernels that allocate per truth table, cut or cone made 15,514 and
// 3,753.
func TestPassAllocationBudget(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	g := synth.SynthSOP([]tt.TT{tt.Random(6, r), tt.Random(6, r), tt.Random(6, r)})
	for _, pass := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"RewriteOnce", func() { RewriteOnce(g, RewriteOptions{}) }, 81},
		{"RefactorOnce", func() { RefactorOnce(g, RefactorOptions{}) }, 356},
	} {
		pass.run() // fill the structure caches, which may have just reset
		allocs := testing.AllocsPerRun(3, pass.run)
		t.Logf("%s over %d ANDs: %v allocations", pass.name, g.NumAnds(), allocs)
		if allocs > pass.budget {
			t.Errorf("%s over %d ANDs made %v allocations, budget %v", pass.name, g.NumAnds(), allocs, pass.budget)
		}
	}
}

// TestResubAllocationBudget pins how many heap allocations one
// resubstitution pass makes over a fixed 8-input AIG (the root package's
// benchmark AIG), whose SimAll tables take four words each. The budget
// sits about 25% above the measured count (537; 558 with Go's classic
// map, GOEXPERIMENT=noswissmap). A 0-resub index of one slice per table
// hash and an Instantiate that allocated its literal map per call made
// 989 (1,009), a mini AIG built per match 2,163, a SimAll that built a
// table per complemented fanin 2,338, and matchers that built a table
// per candidate 560,937.
func TestResubAllocationBudget(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := synth.SynthSOP([]tt.TT{tt.Random(8, r), tt.Random(8, r)})
	const budget = 670
	allocs := testing.AllocsPerRun(3, func() { ResubOnce(g, ResubOptions{}) })
	t.Logf("ResubOnce over %d ANDs: %v allocations", g.NumAnds(), allocs)
	if allocs > budget {
		t.Errorf("ResubOnce over %d ANDs made %v allocations, budget %v", g.NumAnds(), allocs, budget)
	}
}

// TestSimAllAllocations pins SimAll on the same 8-input AIG to one
// allocation per node table plus the slice that holds them; building
// each complemented fanin's table with Not made 522.
func TestSimAllAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := synth.SynthSOP([]tt.TT{tt.Random(8, r), tt.Random(8, r)})
	allocs := testing.AllocsPerRun(3, func() { g.SimAll() })
	t.Logf("SimAll over %d nodes: %v allocations", g.NumObjs(), allocs)
	if want := float64(g.NumObjs() + 1); allocs > want {
		t.Errorf("SimAll over %d nodes made %v allocations, want at most %v", g.NumObjs(), allocs, want)
	}
}
