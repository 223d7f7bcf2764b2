package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/aiger"
	"repro/internal/graph"
	"repro/internal/synth"
	"repro/internal/tt"
	"repro/internal/workload"
)

// TestSelfSimilarityASDZero compares an AIG with itself. Above
// graph.MaxDenseNodes nodes the spectrum comes from a seeded Lanczos
// iteration, so the two profiles must share their seed for the ASD to
// read zero; parity9/sop's 825 nodes stay on that path.
func TestSelfSimilarityASDZero(t *testing.T) {
	g, err := synth.Synthesize("sop", []tt.TT{workload.Parity(9)})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumObjs() <= graph.MaxDenseNodes {
		t.Fatalf("%d nodes stay on the dense eigensolver; the test needs Lanczos", g.NumObjs())
	}
	path := filepath.Join(t.TempDir(), "parity9__sop.aag")
	if err := aiger.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, []string{path, path}); err != nil {
		t.Fatal(err)
	}
	asd := regexp.MustCompile(`(?m)^ASD +(\S+) `).FindSubmatch(out.Bytes())
	if asd == nil {
		t.Fatalf("no ASD line in:\n%s", out.String())
	}
	if string(asd[1]) != "0.0000" {
		t.Errorf("ASD of an AIG against itself = %s, want 0.0000", asd[1])
	}
}
