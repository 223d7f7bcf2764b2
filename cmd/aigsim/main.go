// Command aigsim simulates AIGER files and checks equivalence.
//
// Usage:
//
//	aigsim file.aag                  print the truth table (<= 6 inputs)
//	aigsim -input 1011 file.aag      evaluate one assignment (PI0 first)
//	aigsim -equiv a.aag b.aag        equivalence check
//
// Up to 16 inputs -equiv simulates every input pattern and exits 0
// ("equivalent") or 1 ("NOT EQUIVALENT"). Above 16 inputs it can only
// refute: it simulates 16,384 random patterns and exits 1 on a
// difference, or 3 with an INCONCLUSIVE verdict naming the pattern
// count. Other errors exit 1, usage errors 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/aig"
	"repro/internal/aiger"
)

func main() {
	input := flag.String("input", "", "binary input assignment, PI 0 first")
	equiv := flag.Bool("equiv", false, "check equivalence of two files")
	flag.Parse()

	switch {
	case *equiv:
		if flag.NArg() != 2 {
			usage()
		}
		a, err := aiger.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := aiger.ReadFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		verdict, code, err := aig.CheckEquivalence(a, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(verdict)
		os.Exit(code)

	case *input != "":
		if flag.NArg() != 1 {
			usage()
		}
		g, err := aiger.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if len(*input) != g.NumPIs() {
			fatal(fmt.Errorf("input has %d bits, AIG has %d PIs", len(*input), g.NumPIs()))
		}
		var assignment uint64
		for i, c := range *input {
			switch c {
			case '1':
				assignment |= 1 << uint(i)
			case '0':
			default:
				fatal(fmt.Errorf("invalid input bit %q", c))
			}
		}
		for i, v := range g.Eval(assignment) {
			name := g.POName(i)
			if name == "" {
				name = fmt.Sprintf("o%d", i)
			}
			fmt.Printf("%s = %v\n", name, b2i(v))
		}

	default:
		if flag.NArg() != 1 {
			usage()
		}
		g, err := aiger.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if g.NumPIs() > 6 {
			fatal(fmt.Errorf("truth-table dump limited to 6 inputs; use -input"))
		}
		outs := g.OutputTTs()
		for i, o := range outs {
			name := g.POName(i)
			if name == "" {
				name = fmt.Sprintf("o%d", i)
			}
			fmt.Printf("%s = 0x%s\n", name, o.Hex())
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: aigsim [-equiv a b | -input BITS file | file]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aigsim:", err)
	os.Exit(1)
}
