package opt

import (
	"context"
	"math/rand"

	"repro/internal/aig"
	"repro/internal/telemetry"
)

// Flow is a named high-effort optimization flow. Seed feeds any
// randomized components (only DeepSyn uses it). RunCtx honors
// cancellation at convergence-loop granularity: when the context is
// done, the flow stops iterating and returns the best AIG found so
// far, which is always functionally equivalent to the input.
type Flow struct {
	Name        string
	Description string
	RunCtx      func(ctx context.Context, g *aig.AIG, seed int64) *aig.AIG
}

// Flows returns the paper's three high-effort flows in canonical order.
// Each flow's RunCtx runs as the Step "flow/<name>", a child of the
// span in its ctx, with every pass inside it an "opt/<pass>" child.
func Flows() []Flow {
	return []Flow{
		{"orchestrate", "per-round best of rewrite/refactor/resub to convergence",
			func(ctx context.Context, g *aig.AIG, _ int64) *aig.AIG {
				return Step(ctx, "flow/orchestrate", g, func(ctx context.Context) *aig.AIG { return Orchestrate(ctx, g, 24) })
			}},
		{"dc2", "the classic balance/rewrite/refactor script, iterated to convergence",
			func(ctx context.Context, g *aig.AIG, _ int64) *aig.AIG {
				return Step(ctx, "flow/dc2", g, func(ctx context.Context) *aig.AIG { return DC2Converge(ctx, g) })
			}},
		{"deepsyn", "randomized flow search with LUT-mapping shake-ups (T=10)",
			func(ctx context.Context, g *aig.AIG, seed int64) *aig.AIG {
				return Step(ctx, "flow/deepsyn", g, func(ctx context.Context) *aig.AIG {
					return DeepSyn(ctx, g, DeepSynOptions{Effort: 10, Seed: seed})
				})
			}},
	}
}

// FlowByName returns the named flow, or an error that names the known
// flows.
func FlowByName(name string) (Flow, error) {
	return lookup(Flows(), func(f Flow) string { return f.Name }, name, "flow")
}

// Orchestrate reproduces the orchestration idea of Li et al. (TCAD'24) at
// pass granularity: each round tries resubstitution first (the operator
// the paper reports orchestration favoring heavily), then rewriting and
// refactoring, and commits the round's best reduction, so the operator
// mix adapts to the circuit. Rounds stop at convergence, after
// maxRounds, or when ctx is done (returning the best AIG so far).
func Orchestrate(ctx context.Context, g *aig.AIG, maxRounds int) *aig.AIG {
	cur := g
	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			return cur
		}
		telemetry.Add("flow/orchestrate/rounds", 1)
		// Resubstitution gets the first shot and is kept whenever it
		// makes progress; the structural operators compete otherwise.
		// It searches 150 divisors per node, wider than the rs atom's 80.
		rs := Step(ctx, "opt/resub", cur, func(context.Context) *aig.AIG {
			return ResubOnce(cur, ResubOptions{MaxDivisors: 150})
		})
		if rs.NumAnds() < cur.NumAnds() {
			cur = rs
			continue
		}
		best := cur
		for _, p := range []Pass{passRW, passRF} {
			if c := p.Run(ctx, cur); c.NumAnds() < best.NumAnds() {
				best = c
			}
		}
		if best == cur {
			// Plateau: reshape with balancing and zero-cost rewriting to
			// expose new cuts; if still stuck, escape the local minimum
			// with a LUT map/resynthesis round trip before giving up.
			if shaken := runPasses(ctx, cur, passB, passRWZ, passRS, passRF); shaken.NumAnds() < cur.NumAnds() {
				cur = shaken
				continue
			}
			if escaped := DC2(ctx, passLUT6.Run(ctx, cur)); escaped.NumAnds() < cur.NumAnds() {
				cur = escaped
				continue
			}
			return cur
		}
		cur = best
	}
	return cur
}

// DC2Converge iterates the dc2 script until the AND count stops
// improving — the "high-effort" usage of dc2 in practice — or ctx is
// done.
func DC2Converge(ctx context.Context, g *aig.AIG) *aig.AIG {
	cur := g
	for i := 0; i < 8; i++ {
		if ctx.Err() != nil {
			return cur
		}
		telemetry.Add("flow/dc2/iterations", 1)
		next := DC2(ctx, cur)
		if next.NumAnds() >= cur.NumAnds() {
			return cur
		}
		cur = next
	}
	return cur
}

// DC2 runs the classic ABC dc2 script: b; rw; rf; b; rw; rwz; b; rfz;
// rwz; b. Each pass is a traced Step under ctx; the script itself runs
// to the end regardless of cancellation.
func DC2(ctx context.Context, g *aig.AIG) *aig.AIG {
	cur := runPasses(ctx, g, passB, passRW, passRF, passB, passRW, passRWZ, passB, passRFZ, passRWZ, passB)
	return keepSmaller(g, cur, true)
}

// DeepSynOptions tunes the randomized DeepSyn flow.
type DeepSynOptions struct {
	// Effort is the iteration budget (the paper's -T 10 analogue).
	Effort int
	// Seed drives move selection.
	Seed int64
}

// DeepSyn emulates &deepsyn: a randomized on-the-fly search over
// transformation sequences. Each iteration applies a randomly chosen move
// — a dc2 round, a k-LUT map/resynthesis round trip (the broad
// restructuring move), or operator combinations — keeping the best AIG
// seen and restarting from it when the working copy drifts too far.
// When ctx is done, the search stops and returns the best AIG so far.
func DeepSyn(ctx context.Context, g *aig.AIG, opts DeepSynOptions) *aig.AIG {
	effort := opts.Effort
	if effort <= 0 {
		effort = 10
	}
	r := rand.New(rand.NewSource(opts.Seed))
	best := g
	cur := g
	// The seeded r.Intn picks a move by index, so the order is fixed.
	moves := []func(context.Context, *aig.AIG) *aig.AIG{
		DC2,
		passLUT4.Run,
		passLUT6.Run,
		func(ctx context.Context, a *aig.AIG) *aig.AIG { return runPasses(ctx, a, passRWZ, passRS) },
		func(ctx context.Context, a *aig.AIG) *aig.AIG { return runPasses(ctx, a, passRSZ, passRF) },
		func(ctx context.Context, a *aig.AIG) *aig.AIG { return runPasses(ctx, a, passRW, passB) },
	}
	for i := 0; i < effort; i++ {
		if ctx.Err() != nil {
			return best
		}
		telemetry.Add("flow/deepsyn/moves", 1)
		move := moves[r.Intn(len(moves))]
		cur = move(ctx, cur)
		if cur.NumAnds() < best.NumAnds() {
			best = cur
		}
		// Restart from the best when the working copy has drifted.
		if float64(cur.NumAnds()) > 1.25*float64(best.NumAnds())+4 {
			cur = best
		}
	}
	return best
}

// CompressToConvergence interleaves all operators until no further
// reduction is found — a convenience "max effort" flow exposed by the
// library beyond the paper's three. It honors ctx at iteration
// granularity.
func CompressToConvergence(ctx context.Context, g *aig.AIG) *aig.AIG {
	cur := g
	for i := 0; i < 32; i++ {
		if ctx.Err() != nil {
			return cur
		}
		next := runPasses(ctx, DC2(ctx, cur), passRS, passRF)
		if next.NumAnds() >= cur.NumAnds() {
			return cur
		}
		cur = next
	}
	return cur
}
