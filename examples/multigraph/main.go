// Multigraph: the paper's future-work section applied — the diversity
// framework on XOR-AND Graphs and Majority-Inverter Graphs. For one
// function we synthesize diverse XAG and MIG variants, profile them with
// the transplanted metrics (RGC / RLC / single-step Rewrite Score), and
// show that "structural diversity" means different things per graph
// type: parity is one structure in an XAG and many in an AIG; majority
// collapses in a MIG and sprawls everywhere else.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/mig"
	"repro/internal/tt"
	"repro/internal/workload"
	"repro/internal/xag"
)

func main() { run(os.Stdout) }

// run prints the XAG and MIG variants of each function, their profiles
// and their pairwise scores to w.
func run(w io.Writer) {
	// A function with both XOR character and majority character:
	// full-adder sum (xor3) and carry (maj3), over 3 inputs — plus a
	// bigger mixed function for the scores.
	specs := map[string][]tt.TT{
		"fulladder": workload.FullAdder(),
		"parity6":   {workload.Parity(6)},
		"median5":   {workload.Threshold(5, 3)},
	}
	order := []string{"fulladder", "parity6", "median5"}

	for _, name := range order {
		spec := specs[name]
		fmt.Fprintf(w, "=== %s ===\n", name)

		fmt.Fprintln(w, "XAG variants:")
		var xps []xag.Profile
		for _, rec := range xag.Recipes() {
			g := rec.Build(spec)
			p := xag.NewProfile(g)
			xps = append(xps, p)
			fmt.Fprintf(w, "  %-10s %v   rewrite-reduction=%.3f\n", rec.Name, g.Stat(), p.Reduction)
		}
		fmt.Fprintln(w, "  pairwise XAG scores (RGC / RMC / RewriteScore):")
		recipes := xag.Recipes()
		for i := 0; i < len(xps); i++ {
			for j := i + 1; j < len(xps); j++ {
				fmt.Fprintf(w, "    %-10s vs %-10s %.3f / %.3f / %.3f\n",
					recipes[i].Name, recipes[j].Name,
					xag.RGC(xps[i], xps[j]), xag.RMC(xps[i], xps[j]), xag.RewriteScore(xps[i], xps[j]))
			}
		}

		fmt.Fprintln(w, "MIG variants:")
		var mps []mig.Profile
		for _, rec := range mig.Recipes() {
			g := rec.Build(spec)
			p := mig.NewProfile(g)
			mps = append(mps, p)
			fmt.Fprintf(w, "  %-10s %v   rewrite-reduction=%.3f\n", rec.Name, g.Stat(), p.Reduction)
		}
		fmt.Fprintln(w, "  pairwise MIG scores (RGC / RewriteScore):")
		mrecipes := mig.Recipes()
		for i := 0; i < len(mps); i++ {
			for j := i + 1; j < len(mps); j++ {
				fmt.Fprintf(w, "    %-10s vs %-10s %.3f / %.3f\n",
					mrecipes[i].Name, mrecipes[j].Name,
					mig.RGC(mps[i], mps[j]), mig.RewriteScore(mps[i], mps[j]))
			}
		}
		fmt.Fprintln(w)
	}
}
