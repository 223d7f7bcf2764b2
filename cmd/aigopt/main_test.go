package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/aig"
	"repro/internal/aiger"
)

// andChain returns the left-deep AND chain of n inputs.
func andChain(n int) *aig.AIG {
	g := aig.New(n)
	l := g.PI(0)
	for i := 1; i < n; i++ {
		l = g.And(l, g.PI(i))
	}
	g.AddPO(l)
	return g
}

// TestVerifyVerdicts runs the built command with -verify. Up to 16
// inputs equivalence is proven and aigopt exits 0. Above 16 random
// simulation cannot prove it: aigopt must still write the output, print
// aigsim's INCONCLUSIVE verdict and exit 3, never report success.
func TestVerifyVerdicts(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "aigopt")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		inputs int
		code   int
		stderr string
	}{
		{16, 0, ""},
		{17, 3, "INCONCLUSIVE: no output differs on 16384 random patterns, but 17 inputs exceed the exhaustive limit of 16\n"},
	} {
		in := filepath.Join(dir, fmt.Sprintf("in%d.aag", tc.inputs))
		out := filepath.Join(dir, fmt.Sprintf("out%d.aag", tc.inputs))
		if err := aiger.WriteFile(in, andChain(tc.inputs)); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "-script", "dc2", "-verify", in, out)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		code := 0
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("%d inputs: exit %d, stderr %q; want exit %d, stderr %q", tc.inputs, code, stderr.String(), tc.code, tc.stderr)
		}
		g, err := aiger.ReadFile(out)
		if err != nil {
			t.Fatalf("%d inputs: output not written: %v", tc.inputs, err)
		}
		if idx, err := aig.RandomSimCheck(andChain(tc.inputs), g, 16, rand.New(rand.NewSource(1))); idx != -1 || err != nil {
			t.Errorf("%d inputs: written output differs at output %d (%v)", tc.inputs, idx, err)
		}
	}
}
