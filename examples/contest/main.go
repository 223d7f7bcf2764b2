// Contest: an IWLS-style mini contest. For a slice of the benchmark
// suite, synthesize each function with every recipe, optimize each
// starting point with dc2, and report the best node count per function —
// the pipeline contest entries run, here driven by the library.
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/aig"
	"repro/internal/opt"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	count := flag.Int("n", 8, "number of suite specs to run")
	maxIn := flag.Int("max-inputs", 7, "skip larger specs")
	flag.Parse()

	specs := workload.FilterByInputs(workload.Suite(2024), *maxIn)
	if len(specs) > *count {
		specs = specs[:*count]
	}

	fmt.Printf("%-20s %6s | %-10s %7s -> %7s\n", "spec", "in/out", "winner", "synth", "final")
	totalBest := 0
	for _, s := range specs {
		best := -1
		bestRecipe := ""
		bestStart := 0
		for _, r := range synth.Recipes() {
			g := r.Build(s.Outputs)
			og := opt.DC2(context.Background(), g)
			if idx, err := aig.Equivalent(g, og); err != nil || idx != -1 {
				panic(fmt.Sprintf("%s/%s: optimization broke equivalence", s.Name, r.Name))
			}
			if best == -1 || og.NumAnds() < best {
				best = og.NumAnds()
				bestRecipe = r.Name
				bestStart = g.NumAnds()
			}
		}
		fmt.Printf("%-20s %3d/%-2d | %-10s %7d -> %7d\n",
			s.Name, s.NumInputs(), len(s.Outputs), bestRecipe, bestStart, best)
		totalBest += best
	}
	fmt.Printf("\ntotal best node count over %d functions: %d\n", len(specs), totalBest)
}
