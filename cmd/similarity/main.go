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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/opt"
	"repro/internal/simil"
)

var errUsage = errors.New("usage: similarity [-rod] a.aag b.aag")

func main() {
	err := run(os.Stdout, os.Args[1:])
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "similarity:", err)
		os.Exit(1)
	}
}

// run scores the two AIGER files named in args and writes the report
// to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("similarity", flag.ExitOnError)
	rod := fs.Bool("rod", false, "also compute the Relative Optimizability Difference per flow")
	extended := fs.Bool("extended", false, "also compute the expensive extended metrics (DeltaCon, approximate GED)")
	seed := fs.Int64("seed", 1, "seed for randomized flows")
	checkEquiv := fs.Bool("check", true, "verify the two AIGs are functionally equivalent first")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	if fs.NArg() != 2 {
		return errUsage
	}
	a, err := aiger.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := aiger.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if *checkEquiv && a.NumPIs() <= 16 && a.NumPIs() == b.NumPIs() && a.NumPOs() == b.NumPOs() {
		if idx, _ := aig.Equivalent(a, b); idx != -1 {
			fmt.Fprintf(os.Stderr, "warning: AIGs differ on output %d; metrics assume functional equivalence\n", idx)
		}
	}

	fmt.Fprintf(w, "%-30s %v\n%-30s %v\n\n", fs.Arg(0), a.Stat(), fs.Arg(1), b.Stat())
	// Each profile is seeded from its own structure, as aigd seeds it:
	// identical structures get the same spectrum, so an AIG scores an
	// ASD of zero against itself.
	pa := simil.NewProfile(a, simil.ProfileOptions{Seed: simil.ProfileSeed(a.Fingerprint())})
	pb := simil.NewProfile(b, simil.ProfileOptions{Seed: simil.ProfileSeed(b.Fingerprint())})
	fmt.Fprintf(w, "%-16s %10s   %s\n", "metric", "value", "direction")
	for _, m := range simil.Metrics() {
		dir := "higher = more different"
		if m.HigherIsSimilar {
			dir = "higher = more similar"
		}
		fmt.Fprintf(w, "%-16s %10.4f   %s\n", m.Name, m.Compute(pa, pb), dir)
	}

	if *extended {
		ea, eb := simil.NewExtendedProfile(pa), simil.NewExtendedProfile(pb)
		for _, m := range simil.ExtendedMetrics() {
			dir := "higher = more different"
			if m.HigherIsSimilar {
				dir = "higher = more similar"
			}
			fmt.Fprintf(w, "%-16s %10.4f   %s (extended)\n", m.Name, m.Compute(ea, eb), dir)
		}
	}

	if *rod {
		fmt.Fprintln(w)
		for _, flow := range opt.Flows() {
			oa := flow.RunCtx(context.Background(), a, *seed)
			ob := flow.RunCtx(context.Background(), b, *seed)
			fmt.Fprintf(w, "ROD(%-11s) = %.4f   (%d vs %d gates)\n",
				flow.Name, simil.ROD(oa.NumAnds(), ob.NumAnds()), oa.NumAnds(), ob.NumAnds())
		}
	}
	return nil
}
