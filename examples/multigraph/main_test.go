package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/mig"
	"repro/internal/synth"
	"repro/internal/workload"
	"repro/internal/xag"
)

// goldenPath pins the example's output and a sweep of every XAG and MIG
// recipe, profile and rewrite over the 6-input suite. Regenerate it only
// for an intended change of XAG or MIG behaviour.
const goldenPath = "testdata/multigraph.golden"

// TestGolden requires the example's stdout followed by the sweep to
// match the golden byte for byte.
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	got.WriteString("--- sweep ---\n")
	sweep(t, &got)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	// Keep the full output so an intended change can be copied over the
	// golden after review.
	if out := filepath.Join(os.TempDir(), "multigraph.golden"); os.WriteFile(out, got.Bytes(), 0o644) == nil {
		t.Logf("full output written to %s", out)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, goldenPath, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), goldenPath, len(wl))
}

// sweep prints, for each spec of the 6-input suite, every XAG and MIG
// recipe's stats, profile and lowered AIG (structural fingerprint plus
// a digest of its AIGER text, which also pins node numbering), then the
// stats of both types' Rewrite fixpoint on the imported SOP AIG.
func sweep(t *testing.T, w io.Writer) {
	lowered := func(a *aig.AIG) string {
		var buf bytes.Buffer
		if err := aiger.WriteASCII(&buf, a); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("fp=%.16s aag=%.16x", a.Fingerprint(), sha256.Sum256(buf.Bytes()))
	}
	for _, spec := range workload.FilterByInputs(workload.Suite(2024), 6) {
		for _, rec := range xag.Recipes() {
			g := rec.Build(spec.Outputs)
			p := xag.NewProfile(g)
			fmt.Fprintf(w, "%s xag/%s %v gates=%d ands=%d levels=%d reduction=%.17g %s\n",
				spec.Name, rec.Name, g.Stat(), p.Gates, p.Ands, p.Levels, p.Reduction, lowered(g.ToAIG()))
		}
		for _, rec := range mig.Recipes() {
			g := rec.Build(spec.Outputs)
			p := mig.NewProfile(g)
			fmt.Fprintf(w, "%s mig/%s %v gates=%d levels=%d reduction=%.17g %s\n",
				spec.Name, rec.Name, g.Stat(), p.Gates, p.Levels, p.Reduction, lowered(g.ToAIG()))
		}
		a := synth.SynthSOP(spec.Outputs)
		fmt.Fprintf(w, "%s rewrite(sop) xag: %v  mig: %v\n",
			spec.Name, xag.Rewrite(xag.FromAIG(a)).Stat(), mig.Rewrite(mig.FromAIG(a)).Stat())
	}
}
