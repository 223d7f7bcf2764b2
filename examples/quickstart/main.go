// Quickstart: build the paper's Figure 1 full adder as an AIG, write it
// to AIGER, synthesize it from its truth tables with two recipes, and
// optimize it with the three high-effort flows.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/opt"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	// --- Figure 1: the full adder, built by hand. ----------------------
	g := aig.New(3)
	x1, x2, x3 := g.PI(0), g.PI(1), g.PI(2)
	halfSum := g.Xor(x1, x2)
	sum := g.Xor(halfSum, x3)
	carry := g.Or(g.And(x1, x2), g.And(halfSum, x3))
	g.AddPO(carry)
	g.AddPO(sum)
	g.SetPOName(0, "carry")
	g.SetPOName(1, "sum")
	g = g.Cleanup()
	fmt.Printf("full adder (hand-built):   %v\n", g.Stat())

	// Write and re-read AIGER.
	dir, err := os.MkdirTemp("", "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fulladder.aag")
	if err := aiger.WriteFile(path, g); err != nil {
		log.Fatal(err)
	}
	back, err := aiger.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if idx, _ := aig.Equivalent(g, back); idx != -1 {
		log.Fatal("AIGER round trip changed the function")
	}
	fmt.Printf("AIGER round trip:          ok (%s)\n", filepath.Base(path))

	// --- Synthesize the same function from its specification. ----------
	spec := workload.FullAdder()
	for _, recipe := range []string{"sop", "bdd"} {
		sg, err := synth.Synthesize(recipe, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("synthesized via %-8s   %v\n", recipe+":", sg.Stat())
	}

	// --- Optimize with the paper's three flows. -------------------------
	for _, flow := range opt.Flows() {
		og := flow.RunCtx(context.Background(), g, 1)
		if idx, _ := aig.Equivalent(g, og); idx != -1 {
			log.Fatalf("%s broke equivalence", flow.Name)
		}
		fmt.Printf("optimized with %-12s %v\n", flow.Name+":", og.Stat())
	}
}
