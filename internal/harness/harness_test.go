package harness

import (
	"context"
	"math"
	"strings"
	"testing"
)

// quickConfig keeps integration tests fast: a handful of small specs,
// two flows, all recipes.
func quickConfig() Config {
	return Config{
		Seed:      1,
		MaxInputs: 5,
		MaxSpecs:  4,
		Flows:     []string{"orchestrate", "dc2"},
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := RunContext(context.Background(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Specs) != 4 {
		t.Fatalf("got %d specs", len(res.Specs))
	}
	wantPairs := 4 * 21 // C(7,2) per spec
	if len(res.Pairs) != wantPairs {
		t.Fatalf("got %d pairs, want %d", len(res.Pairs), wantPairs)
	}
	for _, s := range res.Specs {
		if len(s.Variants) != 7 {
			t.Fatalf("%s: %d variants", s.Name, len(s.Variants))
		}
		for _, v := range s.Variants {
			for flow, gates := range v.FlowGates {
				if gates > v.Gates {
					t.Errorf("%s/%s: flow %s grew %d -> %d", s.Name, v.Recipe, flow, v.Gates, gates)
				}
			}
		}
	}
	for _, p := range res.Pairs {
		for name, val := range p.Metrics {
			if math.IsNaN(val) || math.IsInf(val, 0) {
				t.Errorf("%s %s-%s: metric %s = %f", p.Spec, p.RecipeA, p.RecipeB, name, val)
			}
		}
		for flow, rod := range p.ROD {
			if rod < 0 || rod > 1 {
				t.Errorf("%s: ROD(%s) = %f out of [0,1]", p.Spec, flow, rod)
			}
		}
	}
}

func TestCorrelationAndTables(t *testing.T) {
	res, err := RunContext(context.Background(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Correlation("RRRScore", "orchestrate")
	if err != nil {
		t.Fatalf("correlation: %v", err)
	}
	if c.R < -1 || c.R > 1 || c.Low > c.R || c.High < c.R {
		t.Errorf("bad correlation %+v", c)
	}
	t1 := res.TableI()
	if !strings.Contains(t1, "Vertex-Edge Overlap") || !strings.Contains(t1, "Adjacency Spectral Distance") {
		t.Errorf("Table I missing rows:\n%s", t1)
	}
	t2 := res.TableII()
	for _, want := range []string{"RGC", "RLC", "Rewrite Score", "Refactor Score", "Resub Score", "RRR Score", "orchestrate", "dc2"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q:\n%s", want, t2)
		}
	}
	f3 := res.Figure3()
	if !strings.Contains(f3, "ResubScore") || !strings.Contains(f3, "trendline") {
		t.Errorf("Figure 3 malformed:\n%s", f3)
	}
	if res.CategorySummary() == "" {
		t.Error("empty category summary")
	}
}

func TestFigure2(t *testing.T) {
	out, err := Figure2("fulladder", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Relative Optimizability Difference") {
		t.Errorf("Figure 2 malformed:\n%s", out)
	}
	if _, err := Figure2("no-such-spec", 1); err == nil {
		t.Error("unknown spec should error")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.Recipes = []string{"sop"}
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Error("single recipe should error")
	}
	cfg = quickConfig()
	cfg.Flows = []string{"nope"}
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Error("unknown flow should error")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSpecs = 2
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatal("pair counts differ")
	}
	for i := range a.Pairs {
		for name := range a.Pairs[i].Metrics {
			if a.Pairs[i].Metrics[name] != b.Pairs[i].Metrics[name] {
				t.Fatalf("pair %d metric %s not deterministic", i, name)
			}
		}
		for flow := range a.Pairs[i].ROD {
			if a.Pairs[i].ROD[flow] != b.Pairs[i].ROD[flow] {
				t.Fatalf("pair %d ROD %s not deterministic", i, flow)
			}
		}
	}
}

func TestCorrelationByCategory(t *testing.T) {
	res, err := RunContext(context.Background(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	byCat := res.CorrelationByCategory("RRRScore", "orchestrate")
	if len(byCat) == 0 {
		t.Fatal("no categories")
	}
	total := 0
	for cat, c := range byCat {
		if c.R < -1 || c.R > 1 {
			t.Errorf("%s: r = %f out of range", cat, c.R)
		}
		total += c.N
	}
	if total > len(res.Pairs) {
		t.Errorf("category samples %d exceed pair count %d", total, len(res.Pairs))
	}
	tbl := res.CategoryTable("RRRScore", "orchestrate")
	if !strings.Contains(tbl, "RRRScore") || !strings.Contains(tbl, "r =") {
		t.Errorf("malformed category table:\n%s", tbl)
	}
}
