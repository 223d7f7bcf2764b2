// Command similarity computes the paper's pairwise dissimilarity metrics
// between two functionally equivalent AIGER files: the four traditional
// graph measures and the six AIG-specific scores, and optionally the ROD
// under each optimization flow.
//
// Usage:
//
//	similarity a.aag b.aag
//	similarity -rod a.aag b.aag     also optimize both and report ROD
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/opt"
	"repro/internal/simil"
)

func main() {
	rod := flag.Bool("rod", false, "also compute the Relative Optimizability Difference per flow")
	extended := flag.Bool("extended", false, "also compute the expensive extended metrics (DeltaCon, approximate GED)")
	seed := flag.Int64("seed", 1, "seed for randomized flows")
	checkEquiv := flag.Bool("check", true, "verify the two AIGs are functionally equivalent first")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: similarity [-rod] a.aag b.aag")
		os.Exit(2)
	}
	a, err := aiger.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := aiger.ReadFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if *checkEquiv && a.NumPIs() <= 16 && a.NumPIs() == b.NumPIs() && a.NumPOs() == b.NumPOs() {
		if idx, _ := aig.Equivalent(a, b); idx != -1 {
			fmt.Fprintf(os.Stderr, "warning: AIGs differ on output %d; metrics assume functional equivalence\n", idx)
		}
	}

	fmt.Printf("%-30s %v\n%-30s %v\n\n", flag.Arg(0), a.Stat(), flag.Arg(1), b.Stat())
	pa := simil.NewProfile(a, simil.ProfileOptions{Seed: 1})
	pb := simil.NewProfile(b, simil.ProfileOptions{Seed: 2})
	fmt.Printf("%-16s %10s   %s\n", "metric", "value", "direction")
	for _, m := range simil.Metrics() {
		dir := "higher = more different"
		if m.HigherIsSimilar {
			dir = "higher = more similar"
		}
		fmt.Printf("%-16s %10.4f   %s\n", m.Name, m.Compute(pa, pb), dir)
	}

	if *extended {
		ea, eb := simil.NewExtendedProfile(pa), simil.NewExtendedProfile(pb)
		for _, m := range simil.ExtendedMetrics() {
			dir := "higher = more different"
			if m.HigherIsSimilar {
				dir = "higher = more similar"
			}
			fmt.Printf("%-16s %10.4f   %s (extended)\n", m.Name, m.Compute(ea, eb), dir)
		}
	}

	if *rod {
		fmt.Println()
		for _, flow := range opt.Flows() {
			oa := flow.RunCtx(context.Background(), a, *seed)
			ob := flow.RunCtx(context.Background(), b, *seed)
			fmt.Printf("ROD(%-11s) = %.4f   (%d vs %d gates)\n",
				flow.Name, simil.ROD(oa.NumAnds(), ob.NumAnds()), oa.NumAnds(), ob.NumAnds())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "similarity:", err)
	os.Exit(1)
}
