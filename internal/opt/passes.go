package opt

import (
	"context"
	"fmt"

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
		//lint:ignore metricname name is one of the constant opt/* and flow/* names checked at every Step and newPass call site, so the suffixed name is bounded too
		telemetry.Observe(name+"/gates_removed", float64(g.NumAnds()-ng.NumAnds()))
	}
	return ng
}

// Pass is one single-step optimization pass as a script names it: its
// atom ("rw"), the "opt/<pass>" span it runs under, and the bare pass.
// Atoms that differ only in options share a span (rw and rwz are both
// opt/rewrite).
type Pass struct {
	Atom  string
	Span  string
	Apply func(*aig.AIG) *aig.AIG
}

// newPass is the only constructor of table entries, so the span name is
// checked as a constant metric name at each call.
func newPass(atom, span string, apply func(*aig.AIG) *aig.AIG) Pass {
	return Pass{Atom: atom, Span: span, Apply: apply}
}

// Run applies the pass as the traced Step named by its span.
func (p Pass) Run(ctx context.Context, g *aig.AIG) *aig.AIG {
	return Step(ctx, p.Span, g, func(context.Context) *aig.AIG { return p.Apply(g) })
}

// The pass table. Flows, scripts and Figure 2 take their passes from it.
var (
	passB    = newPass("b", "opt/balance", Balance)
	passRW   = newPass("rw", "opt/rewrite", func(g *aig.AIG) *aig.AIG { return RewriteOnce(g, RewriteOptions{}) })
	passRWZ  = newPass("rwz", "opt/rewrite", func(g *aig.AIG) *aig.AIG { return RewriteOnce(g, RewriteOptions{ZeroCost: true}) })
	passRF   = newPass("rf", "opt/refactor", func(g *aig.AIG) *aig.AIG { return RefactorOnce(g, RefactorOptions{}) })
	passRFZ  = newPass("rfz", "opt/refactor", func(g *aig.AIG) *aig.AIG { return RefactorOnce(g, RefactorOptions{ZeroCost: true}) })
	passRS   = newPass("rs", "opt/resub", func(g *aig.AIG) *aig.AIG { return ResubOnce(g, ResubOptions{}) })
	passRSZ  = newPass("rsz", "opt/resub", func(g *aig.AIG) *aig.AIG { return ResubOnce(g, ResubOptions{ZeroCost: true}) })
	passLUT4 = newPass("lut4", "opt/lutmap", func(g *aig.AIG) *aig.AIG { return lutmap.RoundTrip(g, lutmap.Options{K: 4}) })
	passLUT6 = newPass("lut6", "opt/lutmap", func(g *aig.AIG) *aig.AIG { return lutmap.RoundTrip(g, lutmap.Options{K: 6}) })
)

// Passes returns the script passes in table order: b, rw, rwz, rf, rfz,
// rs, rsz, lut4, lut6.
func Passes() []Pass {
	return []Pass{passB, passRW, passRWZ, passRF, passRFZ, passRS, passRSZ, passLUT4, passLUT6}
}

// PassByAtom returns the pass of a script atom, or an error that names
// the known atoms.
func PassByAtom(atom string) (Pass, error) {
	return lookup(Passes(), func(p Pass) string { return p.Atom }, atom, "pass")
}

// runPasses runs the passes left to right, each as its traced Step.
func runPasses(ctx context.Context, g *aig.AIG, passes ...Pass) *aig.AIG {
	for _, p := range passes {
		g = p.Run(ctx, g)
	}
	return g
}

// lookup returns the entry of all whose key is want, or an error naming
// every key.
func lookup[T any](all []T, key func(T) string, want, kind string) (T, error) {
	known := make([]string, len(all))
	for i, x := range all {
		if key(x) == want {
			return x, nil
		}
		known[i] = key(x)
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (have %v)", kind, want, known)
}
