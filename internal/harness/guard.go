package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/aig"
	"repro/internal/opt"
	"repro/internal/simil"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tt"
	"repro/internal/workload"
)

// Failure records one quarantined variant: a recipe build or flow run
// that panicked, or an AIG that failed functional-equivalence
// verification against its specification. Quarantined variants
// contribute no pair samples; the rest of the run proceeds.
type Failure struct {
	Spec   string `json:"spec"`
	Recipe string `json:"recipe"`
	Flow   string `json:"flow,omitempty"`
	Reason string `json:"reason"`
}

func (f Failure) String() string {
	loc := f.Recipe
	if f.Flow != "" {
		loc += "/" + f.Flow
	}
	return fmt.Sprintf("%s %s: %s", f.Spec, loc, f.Reason)
}

// FailureSummary renders the run's quarantined variants, one per line,
// for the end-of-run report. Empty when nothing was quarantined.
func (r *Result) FailureSummary() string {
	if len(r.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quarantined variants: %d\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Recover converts an in-flight panic into an error on *err and counts
// it under harness/panics_recovered, so one crashing variant (or one
// crashing service job) cannot abort the batch run or the daemon. Use
// it deferred: defer harness.Recover(&err, "what was running").
func Recover(err *error, what string) {
	if r := recover(); r != nil {
		telemetry.Add("harness/panics_recovered", 1)
		*err = fmt.Errorf("panic in %s: %v", what, r)
	}
}

// safeBuild runs one synthesis recipe with panic isolation, under the
// span "synth/<recipe>", and records the built AIG's size in the
// "synth/<recipe>/gates" histogram.
func safeBuild(ctx context.Context, rec synth.Recipe, spec []tt.TT) (g *aig.AIG, err error) {
	//lint:ignore metricname rec.Name ranges over the fixed recipe registry (sop, esp, fx, bdd, shannon, dsd, anf), so cardinality is bounded
	_, sp := trace.Start(ctx, "synth/"+rec.Name)
	defer sp.End()
	defer Recover(&err, "recipe "+rec.Name)
	g = rec.Build(spec)
	if sp != nil {
		//lint:ignore metricname rec.Name ranges over the fixed recipe registry, so cardinality is bounded
		telemetry.Observe("synth/"+rec.Name+"/gates", float64(g.NumAnds()))
	}
	return g, nil
}

// SafeProfile computes the similarity profile for the given artifact
// families with panic isolation, under the span "profile/total".
func SafeProfile(ctx context.Context, g *aig.AIG, opts simil.ProfileOptions, needs simil.Artifacts) (p *simil.Profile, err error) {
	_, sp := trace.Start(ctx, "profile/total")
	defer sp.End()
	defer Recover(&err, "profile")
	return simil.NewProfileFor(g, opts, needs), nil
}

// ComputeMetric evaluates one pairwise metric under the span
// "metric/<name>".
func ComputeMetric(ctx context.Context, m simil.Metric, p1, p2 *simil.Profile) float64 {
	//lint:ignore metricname m.Name ranges over the fixed simil.Metrics table, so cardinality is bounded
	_, sp := trace.Start(ctx, "metric/"+m.Name)
	defer sp.End()
	return m.Compute(p1, p2)
}

// SafeFlow runs one optimization flow with panic isolation. When the
// calling context carries a trace, the flow runs under a
// "harness/flow" span — defer order matters: the Fail check is
// declared after End so it runs first (LIFO) and after Recover has
// turned any panic into err.
func SafeFlow(ctx context.Context, flow opt.Flow, g *aig.AIG, seed int64) (og *aig.AIG, err error) {
	ctx, sp := trace.Start(ctx, "harness/flow")
	sp.Attr("flow", flow.Name).Attr("seed", seed)
	defer sp.End()
	defer func() { sp.Fail(err) }()
	defer Recover(&err, "flow "+flow.Name)
	return flow.RunCtx(ctx, g, seed), nil
}

// selfCheck runs the structural verifier when Config.SelfCheck is set.
// A violation means a recipe or pass broke the AIG invariants (fanin
// order, strash canonicality, levels) even if the result still happens
// to simulate correctly, so it quarantines the variant.
func (c Config) selfCheck(g *aig.AIG) error {
	if !c.SelfCheck {
		return nil
	}
	if err := g.Check(); err != nil {
		telemetry.Add("harness/selfcheck_failures", 1)
		return fmt.Errorf("selfcheck: %v", err)
	}
	return nil
}

// flowContext derives the per-flow wall-clock budget context.
func (c Config) flowContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.FlowTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.FlowTimeout)
}

// buildVariant synthesizes, verifies, profiles, and optimizes one
// (spec, recipe) variant. Every synthesized AIG is checked against the
// spec truth tables and every optimized AIG against the synthesized one
// — the invariant the whole ROD analysis rests on. Any panic or
// equivalence violation quarantines the variant: the returned Failure
// describes it and the Variant is nil.
func (c Config) buildVariant(ctx context.Context, spec workload.Spec, rec synth.Recipe, flows []opt.Flow) (*Variant, *Failure) {
	ctx, vspan := trace.Start(ctx, "harness/variant")
	vspan.Attr("spec", spec.Name).Attr("recipe", rec.Name)
	defer vspan.End()
	fail := func(flowName, reason string) (*Variant, *Failure) {
		vspan.Fail(fmt.Errorf("%s", reason))
		vspan.Event("variant_quarantined", trace.A("flow", flowName), trace.A("reason", reason))
		return nil, &Failure{Spec: spec.Name, Recipe: rec.Name, Flow: flowName, Reason: reason}
	}
	g, err := safeBuild(ctx, rec, spec.Outputs)
	if err != nil {
		return fail("", err.Error())
	}
	if err := c.selfCheck(g); err != nil {
		return fail("", err.Error())
	}
	if idx, err := g.EquivalentToTTs(spec.Outputs); err != nil || idx >= 0 {
		telemetry.Add("harness/equiv_failures", 1)
		if err == nil {
			err = fmt.Errorf("synthesized AIG differs from spec on output %d", idx)
		}
		return fail("", err.Error())
	}
	v := &Variant{
		Recipe:    rec.Name,
		Gates:     g.NumAnds(),
		Levels:    g.NumLevels(),
		FlowGates: make(map[string]int, len(flows)),
	}
	// Seeded by structure, as aigd seeds it: identical AIGs get
	// identical spectra, whichever spec and recipe built them.
	popts := simil.ProfileOptions{Seed: simil.ProfileSeed(g.Fingerprint())}
	if v.Profile, err = SafeProfile(ctx, g, popts, simil.AllArtifacts); err != nil {
		return fail("", err.Error())
	}
	for _, flow := range flows {
		fctx, cancel := c.flowContext(ctx)
		og, err := SafeFlow(fctx, flow, g, specSeed(c.Seed, spec.Name, rec.Name, flow.Name))
		if err == nil && fctx.Err() != nil && ctx.Err() == nil {
			// The flow's own budget expired (not a run-level cancel): it
			// degraded to its best AIG so far; count it and keep going.
			telemetry.Add("harness/flow_timeouts", 1)
		}
		cancel()
		if err != nil {
			return fail(flow.Name, err.Error())
		}
		if err := c.selfCheck(og); err != nil {
			return fail(flow.Name, err.Error())
		}
		if idx, err := aig.Equivalent(g, og); err != nil || idx >= 0 {
			telemetry.Add("harness/equiv_failures", 1)
			if err == nil {
				err = fmt.Errorf("optimized AIG differs from synthesized AIG on output %d", idx)
			}
			return fail(flow.Name, err.Error())
		}
		v.FlowGates[flow.Name] = og.NumAnds()
	}
	return v, nil
}
