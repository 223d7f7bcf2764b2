package main

import (
	"strings"
	"testing"

	"repro/internal/aig"
)

// andChain returns the AND of all n inputs, built as a left chain or a
// right chain: two structures of the same function.
func andChain(n int, left bool) *aig.AIG {
	g := aig.New(n)
	l := g.PI(0)
	if !left {
		l = g.PI(n - 1)
	}
	for i := 1; i < n; i++ {
		if left {
			l = g.And(l, g.PI(i))
		} else {
			l = g.And(g.PI(n-1-i), l)
		}
	}
	g.AddPO(l)
	return g
}

// minterm returns an n-input AIG that is true on input pattern m only.
func minterm(n int, m uint) *aig.AIG {
	g := aig.New(n)
	l := aig.LitTrue
	for i := 0; i < n; i++ {
		l = g.And(l, g.PI(i).NotCond(m>>uint(i)&1 == 0))
	}
	g.AddPO(l)
	return g
}

// constZero returns an n-input AIG whose output is constant 0.
func constZero(n int) *aig.AIG {
	g := aig.New(n)
	g.AddPO(aig.LitFalse)
	return g
}

func TestCheckEquiv(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a, b    *aig.AIG
		code    int
		verdict string
	}{
		{"equivalent", andChain(8, true), andChain(8, false), 0, "equivalent"},
		{"different", andChain(8, true), constZero(8), 1, "NOT EQUIVALENT: output 0 differs"},
		{"inconclusive", andChain(17, true), andChain(17, false), aig.EquivInconclusive,
			"INCONCLUSIVE: no output differs on 16384 random patterns, but 17 inputs exceed the exhaustive limit of 16"},
	} {
		verdict, code, err := aig.CheckEquivalence(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != tc.code || !strings.HasPrefix(verdict, tc.verdict) {
			t.Errorf("%s: got %q, exit %d; want %q, exit %d", tc.name, verdict, code, tc.verdict, tc.code)
		}
		if code == aig.EquivInconclusive && strings.Contains(strings.ToLower(verdict), "equivalent") {
			t.Errorf("%s: inconclusive verdict %q claims equivalence", tc.name, verdict)
		}
	}
}

// TestCheckEquivNeverClaimsUnproven compares constant 0 with functions
// true on a single one of 2^17 input patterns. Random patterns mostly
// miss that minterm; whether or not they hit it, the verdict must not
// be "equivalent".
func TestCheckEquivNeverClaimsUnproven(t *testing.T) {
	for m := uint(0); m < 8; m++ {
		verdict, code, err := aig.CheckEquivalence(minterm(17, m), constZero(17))
		if err != nil {
			t.Fatal(err)
		}
		if code == 0 || verdict == "equivalent" {
			t.Errorf("minterm %d: got %q, exit %d", m, verdict, code)
		}
	}
}
