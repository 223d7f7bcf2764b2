package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/opt"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestRecipesEquivalentOnQuickSuite asserts the load-bearing invariant
// directly: every synthesis recipe produces an AIG functionally
// equivalent to its spec truth tables across the -quick suite cut.
func TestRecipesEquivalentOnQuickSuite(t *testing.T) {
	specs := workload.FilterByInputs(workload.Suite(2024), 8)
	if len(specs) > 20 {
		specs = specs[:20]
	}
	if len(specs) == 0 {
		t.Fatal("empty quick suite")
	}
	for _, spec := range specs {
		for _, rec := range synth.Recipes() {
			g, err := safeBuild(context.Background(), rec, spec.Outputs)
			if err != nil {
				t.Errorf("%s/%s: %v", spec.Name, rec.Name, err)
				continue
			}
			idx, err := g.EquivalentToTTs(spec.Outputs)
			if err != nil {
				t.Errorf("%s/%s: %v", spec.Name, rec.Name, err)
			} else if idx >= 0 {
				t.Errorf("%s/%s: output %d differs from spec", spec.Name, rec.Name, idx)
			}
		}
	}
}

// passthrough is a well-behaved injected flow: it returns its input,
// which is trivially equivalent.
func passthrough(name string) opt.Flow {
	return opt.Flow{
		Name:   name,
		RunCtx: func(_ context.Context, g *aig.AIG, _ int64) *aig.AIG { return g },
	}
}

// TestPanickingFlowQuarantined injects a flow that panics on exactly
// one variant and asserts the blast radius: that variant is
// quarantined with a descriptive Failure, the panic counter records
// it, and every other variant and spec completes normally.
func TestPanickingFlowQuarantined(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Enable()
	defer telemetry.Disable()

	calls := 0
	boom := opt.Flow{
		Name: "boom",
		RunCtx: func(_ context.Context, g *aig.AIG, _ int64) *aig.AIG {
			if calls++; calls == 3 {
				panic("injected fault")
			}
			return g
		},
	}
	cfg := quickConfig()
	cfg.Flows = nil
	cfg.testFlows = []opt.Flow{passthrough("noop"), boom}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Failures) != 1 {
		t.Fatalf("got %d failures, want 1:\n%s", len(res.Failures), res.FailureSummary())
	}
	f := res.Failures[0]
	victimSpec := res.Specs[0].Name
	victimRecipe := synth.Recipes()[2].Name // boom's third call = first spec, third recipe
	if f.Spec != victimSpec || f.Recipe != victimRecipe || f.Flow != "boom" {
		t.Errorf("failure located at %s/%s/%s, want %s/%s/boom", f.Spec, f.Recipe, f.Flow, victimSpec, victimRecipe)
	}
	if !strings.Contains(f.Reason, "panic") || !strings.Contains(f.Reason, "injected fault") {
		t.Errorf("failure reason %q does not describe the panic", f.Reason)
	}
	if got := reg.Counter("harness/panics_recovered").Value(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}

	// The rest of the run is intact: 4 specs, the victim spec has 6
	// healthy variants (C(6,2)=15 pairs), the others all 7 (21 each).
	if len(res.Specs) != 4 {
		t.Fatalf("got %d specs", len(res.Specs))
	}
	if n := len(res.Specs[0].Variants); n != 6 {
		t.Errorf("victim spec kept %d variants, want 6", n)
	}
	for _, s := range res.Specs[1:] {
		if len(s.Variants) != 7 {
			t.Errorf("%s: %d variants, want 7", s.Name, len(s.Variants))
		}
	}
	if want := 15 + 3*21; len(res.Pairs) != want {
		t.Errorf("got %d pairs, want %d", len(res.Pairs), want)
	}
	if sum := res.FailureSummary(); !strings.Contains(sum, "quarantined variants: 1") || !strings.Contains(sum, "boom") {
		t.Errorf("malformed failure summary:\n%s", sum)
	}
}

// TestEquivalenceViolationQuarantined injects a flow that returns a
// functionally different AIG (all outputs constant false) and asserts
// the equivalence guard catches every variant instead of letting
// corrupt gate counts into the ROD analysis.
func TestEquivalenceViolationQuarantined(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Enable()
	defer telemetry.Disable()

	corrupt := opt.Flow{
		Name: "corrupt",
		RunCtx: func(_ context.Context, g *aig.AIG, _ int64) *aig.AIG {
			bad := aig.New(g.NumPIs())
			for i := 0; i < g.NumPOs(); i++ {
				bad.AddPO(aig.LitFalse)
			}
			return bad
		},
	}
	cfg := quickConfig()
	cfg.Flows = nil
	cfg.MaxSpecs = 1
	cfg.testFlows = []opt.Flow{corrupt}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Failures) != 7 {
		t.Fatalf("got %d failures, want all 7 variants quarantined:\n%s", len(res.Failures), res.FailureSummary())
	}
	for _, f := range res.Failures {
		if f.Flow != "corrupt" || !strings.Contains(f.Reason, "differs") {
			t.Errorf("unexpected failure %s", f)
		}
	}
	if len(res.Pairs) != 0 {
		t.Errorf("quarantined variants still produced %d pairs", len(res.Pairs))
	}
	if got := reg.Counter("harness/equiv_failures").Value(); got != 7 {
		t.Errorf("equiv_failures = %d, want 7", got)
	}
	if got := reg.Counter("harness/specs_skipped").Value(); got != 1 {
		t.Errorf("specs_skipped = %d, want 1", got)
	}
	// Renderers stay well-formed with zero pairs.
	if res.TableII() == "" || res.CategorySummary() == "" {
		t.Error("empty renderer output for fully quarantined run")
	}
}

// TestSelfCheckQuarantinesStructuralCorruption injects a flow that
// returns a structurally invalid AIG (a PO pointing at a node that does
// not exist) and asserts that Config.SelfCheck quarantines every
// affected variant with a "selfcheck:" reason before the equivalence
// guard ever simulates the broken graph.
func TestSelfCheckQuarantinesStructuralCorruption(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Enable()
	defer telemetry.Disable()

	mangle := opt.Flow{
		Name: "mangle",
		RunCtx: func(_ context.Context, g *aig.AIG, _ int64) *aig.AIG {
			bad := aig.New(g.NumPIs())
			for i := 0; i < g.NumPOs(); i++ {
				bad.AddPO(aig.MakeLit(bad.NumObjs()+5, false))
			}
			return bad
		},
	}
	cfg := quickConfig()
	cfg.Flows = nil
	cfg.MaxSpecs = 1
	cfg.SelfCheck = true
	cfg.testFlows = []opt.Flow{mangle}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Failures) != 7 {
		t.Fatalf("got %d failures, want all 7 variants quarantined:\n%s", len(res.Failures), res.FailureSummary())
	}
	for _, f := range res.Failures {
		if f.Flow != "mangle" {
			t.Errorf("failure attributed to %q, want flow mangle", f.Flow)
		}
		if !strings.Contains(f.Reason, "selfcheck:") || !strings.Contains(f.Reason, "references nonexistent node") {
			t.Errorf("failure reason %q does not describe the structural violation", f.Reason)
		}
	}
	if len(res.Pairs) != 0 {
		t.Errorf("quarantined variants still produced %d pairs", len(res.Pairs))
	}
	if got := reg.Counter("harness/selfcheck_failures").Value(); got != 7 {
		t.Errorf("selfcheck_failures = %d, want 7", got)
	}
}
