package sop

import (
	"math/rand"
	"testing"

	"repro/internal/tt"
)

// TestFactorAllocationBudget pins how many heap allocations minimizing
// and factoring a fixed random 8-variable table make. The budget sits
// about 25% above the measured count (2,185; 2,269 with Go's classic
// map, GOEXPERIMENT=noswissmap); a minimizer with a table per cube and
// an algebra of maps and per-quotient covers made 36,005.
func TestFactorAllocationBudget(t *testing.T) {
	f := tt.Random(8, rand.New(rand.NewSource(88)))
	const budget = 2750
	allocs := testing.AllocsPerRun(3, func() { Factor(MinimizeTT(f)) })
	t.Logf("Factor(MinimizeTT(f)) over 8 variables: %v allocations", allocs)
	if allocs > budget {
		t.Errorf("Factor(MinimizeTT(f)) over 8 variables made %v allocations, budget %v", allocs, budget)
	}
}
