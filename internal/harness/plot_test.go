package harness

import (
	"context"
	"strings"
	"testing"
)

func TestAsciiScatter(t *testing.T) {
	xs := []float64{0, 0.5, 1, 0.5, 0.5}
	ys := []float64{0, 0.5, 1, 0.5, 0.5}
	out := AsciiScatter(xs, ys, 40, 10, "x", "y")
	if !strings.Contains(out, "5 points") {
		t.Errorf("missing point count:\n%s", out)
	}
	// The (0.5,0.5) cell holds three points.
	if !strings.Contains(out, "3") {
		t.Errorf("density digit missing:\n%s", out)
	}
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.000") {
		t.Errorf("axis extents missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10+3 { // header + rows + axis + extents
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestAsciiScatterDegenerate(t *testing.T) {
	if out := AsciiScatter(nil, nil, 40, 10, "x", "y"); !strings.Contains(out, "no data") {
		t.Error("empty input should say so")
	}
	// Constant data must not divide by zero.
	out := AsciiScatter([]float64{1, 1}, []float64{2, 2}, 40, 10, "x", "y")
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked:\n%s", out)
	}
	// Tiny dimensions fall back to defaults.
	out = AsciiScatter([]float64{0, 1}, []float64{0, 1}, 1, 1, "x", "y")
	if len(out) < 100 {
		t.Error("default dimensions not applied")
	}
}

func TestFigure3Plot(t *testing.T) {
	res, err := RunContext(context.Background(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Figure3Plot()
	if !strings.Contains(out, "ROD") || !strings.Contains(out, "Resub Score") {
		t.Errorf("plot labels missing:\n%s", out)
	}
}
