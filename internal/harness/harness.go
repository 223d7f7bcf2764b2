// Package harness drives the paper's end-to-end experiment: synthesize
// every benchmark function with the seven recipes, profile every AIG,
// optimize with the three high-effort flows, compute pairwise metrics and
// the Relative Optimizability Difference, and correlate (Pearson + Fisher
// CIs). Its outputs regenerate Table I, Table II, and Figure 3.
//
// The harness is fault-tolerant: runs are cancellable via context
// (returning the specs completed so far), per-spec results can be
// checkpointed and resumed byte-identically, and every variant is
// verified for functional equivalence and isolated from panics — a
// failing recipe or flow is quarantined into Result.Failures instead of
// aborting or silently corrupting the analysis.
package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/opt"
	"repro/internal/simil"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives workload generation and every randomized flow.
	Seed int64
	// MaxInputs filters the suite (default 10, mirroring the paper's
	// scalability cut that kept 87 of 100 functions).
	MaxInputs int
	// MaxSpecs truncates the suite for quick runs (0 = all).
	MaxSpecs int
	// Flows selects a subset of the flows by name (nil = all).
	Flows []string
	// Progress, when non-nil, receives one line per processed spec.
	Progress io.Writer
	// Events, when non-nil, receives one structured JSONL event per
	// processed spec (plus run start/end). The human-readable Progress
	// line is embedded in each spec event, so the two sinks are
	// different renderings of the same record and cannot diverge.
	Events *telemetry.EventLogger
	// FlowTimeout bounds each flow invocation's wall clock: on expiry
	// the flow stops converging and returns its best (still equivalent)
	// AIG so far, so one pathological convergence loop cannot hang the
	// run (0 = unbounded).
	FlowTimeout time.Duration
	// Checkpoint, when non-nil, receives one appended SpecRecord per
	// completed spec, making the run resumable after a kill.
	Checkpoint *Checkpointer
	// Resume holds records loaded from a previous run's checkpoint
	// (see LoadCheckpoint/OpenCheckpoint). RunContext replays the longest
	// prefix matching the suite order instead of recomputing it, then
	// continues from the first missing spec.
	Resume []SpecRecord
	// SelfCheck runs the aig.Check structural verifier on every
	// synthesized and every optimized AIG; violations quarantine the
	// variant like any other failure. It changes which variants can
	// fail but never the numbers a surviving variant contributes, so it
	// is deliberately not part of the checkpoint fingerprint.
	SelfCheck bool

	// testFlows overrides the flow set for fault-injection tests.
	testFlows []opt.Flow
}

func (c Config) maxInputs() int {
	if c.MaxInputs <= 0 {
		return 10
	}
	return c.MaxInputs
}

func (c Config) flowSet() ([]opt.Flow, error) {
	if c.testFlows != nil {
		return c.testFlows, nil
	}
	if c.Flows == nil {
		return opt.Flows(), nil
	}
	out := make([]opt.Flow, len(c.Flows))
	for i, name := range c.Flows {
		f, err := opt.FlowByName(name)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		out[i] = f
	}
	return out, nil
}

// Variant is one synthesized AIG of a spec with its profile and
// per-flow optimized gate counts.
type Variant struct {
	Recipe string
	Gates  int
	Levels int
	// Profile is not persisted in checkpoints (pairs derived from it
	// are); variants of resumed specs carry a nil Profile.
	Profile   *simil.Profile `json:"-"`
	FlowGates map[string]int
}

// SpecRun holds all variants of one benchmark spec.
type SpecRun struct {
	Name     string
	Category string
	Inputs   int
	Outputs  int
	Variants []Variant
}

// PairSample is one (AIG, AIG) comparison: the paper's unit of analysis.
type PairSample struct {
	Spec    string
	RecipeA string
	RecipeB string
	Metrics map[string]float64
	ROD     map[string]float64
	GatesA  int
	GatesB  int
}

// Result is a full experiment outcome.
type Result struct {
	Config Config
	Specs  []SpecRun
	Pairs  []PairSample
	// FlowNames and MetricNames record the evaluated axes in order.
	FlowNames   []string
	MetricNames []string
	// Failures lists every quarantined variant: panics recovered from
	// recipe builds or flow runs, and functional-equivalence
	// violations. They contribute no pair samples.
	Failures []Failure
	// Interrupted reports that the run was cancelled before every spec
	// completed; Specs/Pairs hold the completed prefix.
	Interrupted bool
}

// specSeed derives a stable per-spec/per-flow seed.
func specSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return base ^ int64(h.Sum64()&0x7FFFFFFFFFFFFFFF)
}

// RunContext executes the experiment under ctx. Cancellation is honored
// at spec granularity: the spec in flight is abandoned (its flows
// return early, so its results would not match an uninterrupted run's)
// and the Result carries the completed prefix with Interrupted set, so
// callers can still emit tables, CSV, and checkpoints for the work done
// so far.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	specs := workload.FilterByInputs(workload.Suite(cfg.Seed), cfg.maxInputs())
	if cfg.MaxSpecs > 0 && len(specs) > cfg.MaxSpecs {
		specs = specs[:cfg.MaxSpecs]
	}
	recipes := synth.Recipes()
	flows, err := cfg.flowSet()
	if err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("harness: no flows selected")
	}
	metrics := simil.Metrics()

	res := &Result{Config: cfg}
	for _, f := range flows {
		res.FlowNames = append(res.FlowNames, f.Name)
	}
	for _, m := range metrics {
		res.MetricNames = append(res.MetricNames, m.Name)
	}

	telemetry.SetGauge("harness/specs_total", float64(len(specs)))
	cfg.Events.Log("run_start", map[string]any{
		"seed": cfg.Seed, "specs": len(specs), "resumable": len(cfg.Resume),
		"recipes": len(recipes), "flows": res.FlowNames, "metrics": res.MetricNames,
	})

	resume := cfg.Resume
	for si, spec := range specs {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		if len(resume) > 0 {
			if resume[0].Spec != spec.Name {
				// First divergence from the checkpointed prefix:
				// everything from here on is recomputed.
				resume = nil
			} else {
				rec := resume[0]
				resume = resume[1:]
				res.Specs = append(res.Specs, rec.Run)
				res.Pairs = append(res.Pairs, rec.Pairs...)
				res.Failures = append(res.Failures, rec.Failures...)
				telemetry.Add("harness/specs_resumed", 1)
				line := fmt.Sprintf("[%3d/%3d] %-22s resumed from checkpoint, pairs=%d",
					si+1, len(specs), spec.Name, len(res.Pairs))
				if cfg.Progress != nil {
					fmt.Fprintln(cfg.Progress, line)
				}
				cfg.Events.Log("spec_resumed", map[string]any{
					"index": si + 1, "total": len(specs), "spec": spec.Name,
					"pairs": len(res.Pairs), "line": line,
				})
				continue
			}
		}

		run, pairs, failures := cfg.runSpec(ctx, spec, recipes, flows, metrics)
		if ctx.Err() != nil {
			// Cancelled mid-spec: the flows returned early, so this
			// spec's numbers would differ from an uninterrupted run's.
			// Discard it; a resumed run recomputes it faithfully.
			res.Interrupted = true
			break
		}
		res.Specs = append(res.Specs, run)
		res.Pairs = append(res.Pairs, pairs...)
		res.Failures = append(res.Failures, failures...)

		newPairs := len(pairs)
		telemetry.Add("harness/specs_done", 1)
		telemetry.Add("harness/pairs", int64(newPairs))
		telemetry.Add("harness/rods", int64(newPairs*len(flows)))

		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint.Append(SpecRecord{Spec: spec.Name, Run: run, Pairs: pairs, Failures: failures}); err != nil {
				return nil, err
			}
		}

		// One progress record, two renderings: the human-readable line
		// (Progress) and the structured event (Events).
		line := fmt.Sprintf("[%3d/%3d] %-22s in=%2d out=%2d pairs=%d",
			si+1, len(specs), spec.Name, spec.NumInputs(), len(spec.Outputs), len(res.Pairs))
		if cfg.Progress != nil {
			fmt.Fprintln(cfg.Progress, line)
		}
		cfg.Events.Log("spec_done", map[string]any{
			"index": si + 1, "total": len(specs), "spec": spec.Name,
			"category": spec.Category, "inputs": spec.NumInputs(),
			"outputs": len(spec.Outputs), "pairs": len(res.Pairs),
			"failures": len(failures), "line": line,
		})
	}
	cfg.Events.Log("run_done", map[string]any{
		"specs": len(res.Specs), "pairs": len(res.Pairs),
		"failures": len(res.Failures), "interrupted": res.Interrupted,
	})
	return res, nil
}

// variantWorkers is how many variants of a spec build at once: one per
// core the Go scheduler may use, and never more than there are recipes.
func variantWorkers(recipes int) int {
	return min(runtime.GOMAXPROCS(0), recipes)
}

// runSpec computes one spec's variants (with per-variant panic
// isolation and equivalence guards) and its pairwise samples.
func (c Config) runSpec(ctx context.Context, spec workload.Spec, recipes []synth.Recipe, flows []opt.Flow, metrics []simil.Metric) (SpecRun, []PairSample, []Failure) {
	run := SpecRun{
		Name:     spec.Name,
		Category: spec.Category,
		Inputs:   spec.NumInputs(),
		Outputs:  len(spec.Outputs),
	}
	// Variants build on a fixed set of workers, each result into its
	// recipe's slot; variants and failures are then taken in recipe
	// order, so the outcome does not depend on the worker count.
	variants := make([]*Variant, len(recipes))
	fails := make([]*Failure, len(recipes))
	todo := make(chan int, len(recipes))
	for i := range recipes {
		todo <- i
	}
	close(todo)
	var wg sync.WaitGroup
	for w := variantWorkers(len(recipes)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				variants[i], fails[i] = c.buildVariant(ctx, spec, recipes[i], flows)
			}
		}()
	}
	wg.Wait()
	var failures []Failure
	for i := range recipes {
		if fails[i] != nil {
			failures = append(failures, *fails[i])
			continue
		}
		run.Variants = append(run.Variants, *variants[i])
	}
	if len(run.Variants) < 2 {
		// Fewer than two healthy variants: nothing to compare, the
		// spec contributes no pairs.
		telemetry.Add("harness/specs_skipped", 1)
	}

	// One span per spec holds its metric evaluations, so no metric span
	// becomes the root of a trace of its own.
	pctx, sp := trace.Start(ctx, "harness/pairs")
	sp.Attr("spec", spec.Name)
	defer sp.End()
	var pairs []PairSample
	for i := 0; i < len(run.Variants); i++ {
		for j := i + 1; j < len(run.Variants); j++ {
			a, b := run.Variants[i], run.Variants[j]
			sample := PairSample{
				Spec:    spec.Name,
				RecipeA: a.Recipe,
				RecipeB: b.Recipe,
				Metrics: make(map[string]float64),
				ROD:     make(map[string]float64, len(flows)),
				GatesA:  a.Gates,
				GatesB:  b.Gates,
			}
			for _, m := range metrics {
				sample.Metrics[m.Name] = ComputeMetric(pctx, m, a.Profile, b.Profile)
			}
			for _, flow := range flows {
				sample.ROD[flow.Name] = simil.ROD(a.FlowGates[flow.Name], b.FlowGates[flow.Name])
			}
			pairs = append(pairs, sample)
		}
	}
	return run, pairs, failures
}

// Correlation computes the Pearson correlation (with 95% Fisher CI)
// between a metric and the ROD under a flow across all pairs.
func (r *Result) Correlation(metric, flow string) (stats.Correlation, error) {
	var xs, ys []float64
	for _, p := range r.Pairs {
		m, ok1 := p.Metrics[metric]
		rod, ok2 := p.ROD[flow]
		if !ok1 || !ok2 {
			continue
		}
		xs = append(xs, m)
		ys = append(ys, rod)
	}
	if len(xs) == 0 {
		return stats.Correlation{}, fmt.Errorf("harness: no samples for %s/%s", metric, flow)
	}
	return stats.PearsonCI(xs, ys, 0.95)
}

// Scatter returns the (metric, ROD) sample series for a metric/flow —
// the data behind Figure 3 — together with the least-squares trendline.
func (r *Result) Scatter(metric, flow string) (xs, ys []float64, line stats.Line, err error) {
	for _, p := range r.Pairs {
		xs = append(xs, p.Metrics[metric])
		ys = append(ys, p.ROD[flow])
	}
	line, err = stats.LinearFit(xs, ys)
	return xs, ys, line, err
}

// CorrelationByCategory computes the metric/flow Pearson correlation
// separately within each workload category, revealing where a metric's
// predictive power comes from (e.g. size-type metrics thrive on
// categories with wide synthesis spreads).
func (r *Result) CorrelationByCategory(metric, flow string) map[string]stats.Correlation {
	catOf := make(map[string]string, len(r.Specs))
	for _, s := range r.Specs {
		catOf[s.Name] = s.Category
	}
	xs := map[string][]float64{}
	ys := map[string][]float64{}
	for _, p := range r.Pairs {
		c := catOf[p.Spec]
		xs[c] = append(xs[c], p.Metrics[metric])
		ys[c] = append(ys[c], p.ROD[flow])
	}
	out := make(map[string]stats.Correlation, len(xs))
	for c := range xs {
		if corr, err := stats.PearsonCI(xs[c], ys[c], 0.95); err == nil {
			out[c] = corr
		}
	}
	return out
}

// CategoryTable renders per-category correlations for a metric/flow.
func (r *Result) CategoryTable(metric, flow string) string {
	byCat := r.CorrelationByCategory(metric, flow)
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	out := fmt.Sprintf("%s vs ROD (%s) by category\n", metric, flow)
	for _, c := range cats {
		corr := byCat[c]
		out += fmt.Sprintf("  %-12s r = %6.2f  [%5.2f, %5.2f]  (n=%d)\n", c, corr.R, corr.Low, corr.High, corr.N)
	}
	return out
}

// CategorySummary aggregates average synthesis sizes per category —
// useful for the experiment report.
func (r *Result) CategorySummary() string {
	type acc struct {
		n     int
		gates int
	}
	byCat := map[string]*acc{}
	var cats []string
	for _, s := range r.Specs {
		a := byCat[s.Category]
		if a == nil {
			a = &acc{}
			byCat[s.Category] = a
			cats = append(cats, s.Category)
		}
		for _, v := range s.Variants {
			a.n++
			a.gates += v.Gates
		}
	}
	sort.Strings(cats)
	out := "category        AIGs  avg-gates\n"
	for _, c := range cats {
		a := byCat[c]
		avg := 0.0
		if a.n > 0 {
			avg = float64(a.gates) / float64(a.n)
		}
		out += fmt.Sprintf("%-14s %5d %10.1f\n", c, a.n, avg)
	}
	return out
}
