package sop

import (
	"math/rand"
	"testing"

	"repro/internal/tt"
)

// TestFactorAllocationBudget pins how many heap allocations minimizing
// and factoring a fixed random 8-variable table make. The budget sits
// about 25% above the measured count (1,283; 1,297 with Go's classic
// map, GOEXPERIMENT=noswissmap). Before Isop kept its tables on one
// word stack and the kernel searches of a Factor call shared one
// bounded finder it was 2,185 (2,269); a minimizer with a table per
// cube and an algebra of maps and per-quotient covers made 36,005.
func TestFactorAllocationBudget(t *testing.T) {
	f := tt.Random(8, rand.New(rand.NewSource(88)))
	const budget = 1600
	allocs := testing.AllocsPerRun(3, func() { Factor(MinimizeTT(f)) })
	t.Logf("Factor(MinimizeTT(f)) over 8 variables: %v allocations", allocs)
	if allocs > budget {
		t.Errorf("Factor(MinimizeTT(f)) over 8 variables made %v allocations, budget %v", allocs, budget)
	}
}

// factorSink keeps BenchmarkFactor's results live.
var factorSink *Expr

// BenchmarkFactor minimizes and factors random tables of 7 to 10
// variables, the cut functions refactoring collapses.
func BenchmarkFactor(b *testing.B) {
	r := rand.New(rand.NewSource(89))
	fs := make([]tt.TT, 16)
	for i := range fs {
		fs[i] = tt.Random(7+i%4, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factorSink = Factor(MinimizeTT(fs[i%len(fs)]))
	}
}
