// Earlystop: the paper's motivating use case. Running all seven
// synthesis variants through a high-effort flow is expensive; the RRR
// Score lets us keep only a few structurally diverse starting points and
// still reach (nearly) the same best result.
//
// The example compares three strategies on a handful of benchmark
// functions:
//
//  1. optimize every variant (the expensive baseline),
//  2. optimize k RRR-diverse variants (the paper's proposal),
//  3. optimize k arbitrary variants (the naive cut).
package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	const k = 3
	const flow = "dc2"
	names := []string{"present_sbox_all", "median7", "mult3x3", "fulladder", "rand04_n8_o2"}
	suite := workload.Suite(2024)

	fmt.Printf("strategy comparison with flow %q, k = %d of 7 variants\n\n", flow, k)
	fmt.Printf("%-18s %9s %12s %12s %12s\n", "spec", "variants", "opt-all", "RRR-pick", "naive-pick")

	totalAll, totalRRR, totalNaive := 0, 0, 0
	for _, name := range names {
		var spec *workload.Spec
		for i := range suite {
			if suite[i].Name == name {
				spec = &suite[i]
				break
			}
		}
		if spec == nil {
			fmt.Printf("%-18s (not in suite)\n", name)
			continue
		}
		variants := repro.SynthesizeAll(spec.Outputs)

		bestAll, _, err := repro.OptimizeBest(ctx, variants, flow, 1)
		if err != nil {
			panic(err)
		}
		diverse := repro.SelectDiverse(variants, k)
		bestRRR, _, err := repro.OptimizeBest(ctx, diverse, flow, 1)
		if err != nil {
			panic(err)
		}
		bestNaive, _, err := repro.OptimizeBest(ctx, variants[:k], flow, 1)
		if err != nil {
			panic(err)
		}

		fmt.Printf("%-18s %9d %12d %12d %12d\n",
			name, len(variants), bestAll.NumAnds(), bestRRR.NumAnds(), bestNaive.NumAnds())
		totalAll += bestAll.NumAnds()
		totalRRR += bestRRR.NumAnds()
		totalNaive += bestNaive.NumAnds()
	}
	fmt.Printf("\n%-18s %9s %12d %12d %12d\n", "TOTAL", "", totalAll, totalRRR, totalNaive)
	fmt.Printf("\nRRR-guided selection pays for %d/%d of the optimization runs.\n", 3, 7)
}
