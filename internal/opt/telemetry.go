package opt

import (
	"context"

	"repro/internal/aig"
	"repro/internal/lutmap"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Step runs one optimization step on g under the span name, a child of
// the span ctx carries, and records the step's node reduction in the
// "<name>/gates_removed" histogram. Every flow runs as a "flow/<flow>"
// step and every pass inside it as an "opt/<pass>" step, so a traced
// flow shows each pass as a child span. With telemetry and tracing off
// it only runs the step.
func Step(ctx context.Context, name string, g *aig.AIG, run func(ctx context.Context) *aig.AIG) *aig.AIG {
	ctx, sp := trace.Start(ctx, name)
	ng := run(ctx)
	if sp != nil {
		sp.End()
		//lint:ignore metricname name is one of the constant opt/* and flow/* names checked at every Step call site, so the suffixed name is bounded too
		telemetry.Observe(name+"/gates_removed", float64(g.NumAnds()-ng.NumAnds()))
	}
	return ng
}

// The passes as flows run them: each one is a traced Step.

func balanceStep(ctx context.Context, g *aig.AIG) *aig.AIG {
	return Step(ctx, "opt/balance", g, func(context.Context) *aig.AIG { return Balance(g) })
}

func rewriteStep(ctx context.Context, g *aig.AIG, o RewriteOptions) *aig.AIG {
	return Step(ctx, "opt/rewrite", g, func(context.Context) *aig.AIG { return RewriteOnce(g, o) })
}

func refactorStep(ctx context.Context, g *aig.AIG, o RefactorOptions) *aig.AIG {
	return Step(ctx, "opt/refactor", g, func(context.Context) *aig.AIG { return RefactorOnce(g, o) })
}

func resubStep(ctx context.Context, g *aig.AIG, o ResubOptions) *aig.AIG {
	return Step(ctx, "opt/resub", g, func(context.Context) *aig.AIG { return ResubOnce(g, o) })
}

func lutStep(ctx context.Context, g *aig.AIG, k int) *aig.AIG {
	return Step(ctx, "opt/lutmap", g, func(context.Context) *aig.AIG { return lutmap.RoundTrip(g, lutmap.Options{K: k}) })
}
