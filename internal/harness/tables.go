package harness

import (
	"fmt"
	"strings"

	"repro/internal/aig"
	"repro/internal/opt"
	"repro/internal/simil"
	"repro/internal/synth"
	"repro/internal/workload"
)

// TableI renders the paper's Table I: Pearson correlation (with 95% CI)
// of the four traditional graph similarity measures against the Relative
// Optimizability Difference under the orchestrate flow.
func (r *Result) TableI() string {
	var b strings.Builder
	b.WriteString("Table I: traditional graph similarity measures vs ROD (orchestrate)\n")
	b.WriteString(fmt.Sprintf("%-28s %8s   %s\n", "SIMILARITY MEASURE", "r", "CI"))
	rows := []struct{ name, label string }{
		{"VEO", "Vertex-Edge Overlap"},
		{"NetSimile", "NetSimile"},
		{"WLKernel", "Weisfeiler-Lehman Kernel"},
		{"ASD", "Adjacency Spectral Distance"},
	}
	for _, row := range rows {
		c, err := r.Correlation(row.name, "orchestrate")
		if err != nil {
			b.WriteString(fmt.Sprintf("%-28s %8s   (%v)\n", row.label, "n/a", err))
			continue
		}
		b.WriteString(fmt.Sprintf("%-28s %8.2f   [%.2f, %.2f]\n", row.label, c.R, c.Low, c.High))
	}
	b.WriteString(fmt.Sprintf("(n = %d AIG pairs)\n", len(r.Pairs)))
	return b.String()
}

// TableII renders the paper's Table II: Pearson correlation (with 95%
// CIs) of the six proposed AIG-specific metrics against ROD under every
// evaluated flow.
func (r *Result) TableII() string {
	metrics := []struct{ name, label string }{
		{"RGC", "RGC"},
		{"RLC", "RLC"},
		{"RewriteScore", "Rewrite Score"},
		{"RefactorScore", "Refactor Score"},
		{"ResubScore", "Resub Score"},
		{"RRRScore", "RRR Score"},
	}
	var b strings.Builder
	b.WriteString("Table II: proposed AIG-specific metrics vs ROD per flow\n")
	b.WriteString(fmt.Sprintf("%-16s", "MEASURE"))
	for _, f := range r.FlowNames {
		b.WriteString(fmt.Sprintf(" | %-24s", f))
	}
	b.WriteString("\n")
	b.WriteString(fmt.Sprintf("%-16s", ""))
	for range r.FlowNames {
		b.WriteString(fmt.Sprintf(" | %8s %15s", "r", "CI"))
	}
	b.WriteString("\n")
	for _, m := range metrics {
		b.WriteString(fmt.Sprintf("%-16s", m.label))
		for _, f := range r.FlowNames {
			c, err := r.Correlation(m.name, f)
			if err != nil {
				b.WriteString(fmt.Sprintf(" | %8s %15s", "n/a", "-"))
				continue
			}
			b.WriteString(fmt.Sprintf(" | %8.2f [%5.2f, %5.2f]", c.R, c.Low, c.High))
		}
		b.WriteString("\n")
	}
	b.WriteString(fmt.Sprintf("(n = %d AIG pairs)\n", len(r.Pairs)))
	return b.String()
}

// Figure3 renders the scatter data of the paper's Figure 3: Resub Score
// vs ROD under orchestrate, with the trendline and correlation.
func (r *Result) Figure3() string {
	return r.FigureScatter("ResubScore", "orchestrate")
}

// FigureScatter renders any metric/flow scatter with its trendline.
func (r *Result) FigureScatter(metric, flow string) string {
	xs, ys, line, err := r.Scatter(metric, flow)
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Figure: %s vs ROD (%s)\n", metric, flow))
	if c, cerr := r.Correlation(metric, flow); cerr == nil {
		b.WriteString(fmt.Sprintf("r = %.2f, CI [%.2f, %.2f], n = %d\n", c.R, c.Low, c.High, c.N))
	}
	if err == nil {
		b.WriteString(fmt.Sprintf("trendline: ROD = %.4f * x + %.4f\n", line.Slope, line.Intercept))
	}
	b.WriteString(fmt.Sprintf("%10s %10s\n", metric, "ROD"))
	for i := range xs {
		b.WriteString(fmt.Sprintf("%10.4f %10.4f\n", xs[i], ys[i]))
	}
	return b.String()
}

// TrajectoryPoint is one step of an optimization path (Figure 2's
// conceptual search-space walk, made concrete).
type TrajectoryPoint struct {
	Step  string
	Gates int
}

// Trajectory records per-pass gate counts of an orchestrate-style walk —
// the concrete rendering of the paper's Figure 2 illustration. Its
// steps come from opt's pass table and run untraced: Figure 2 is an
// emission root that must stay deterministic.
func Trajectory(g *aig.AIG) ([]TrajectoryPoint, error) {
	out := []TrajectoryPoint{{"start", g.NumAnds()}}
	cur := g
	for _, atom := range []string{"rs", "rw", "rf", "b", "rs", "rw", "rf"} {
		p, err := opt.PassByAtom(atom)
		if err != nil {
			return nil, err
		}
		cur = p.Apply(cur)
		out = append(out, TrajectoryPoint{strings.TrimPrefix(p.Span, "opt/"), cur.NumAnds()})
	}
	return out, nil
}

// Figure2 renders the optimization trajectories of two synthesis
// variants of one spec — the concrete counterpart of the paper's
// conceptual Figure 2 — and their resulting ROD.
func Figure2(specName string, seed int64) (string, error) {
	var spec *workload.Spec
	for _, s := range workload.Suite(seed) {
		if s.Name == specName {
			c := s
			spec = &c
			break
		}
	}
	if spec == nil {
		return "", fmt.Errorf("harness: unknown spec %q", specName)
	}
	g1 := synth.SynthSOP(spec.Outputs)
	g2 := synth.SynthBDD(spec.Outputs)
	t1, err := Trajectory(g1)
	if err != nil {
		return "", err
	}
	t2, err := Trajectory(g2)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Figure 2: optimization trajectories for %s\n", spec.Name))
	b.WriteString(fmt.Sprintf("%-10s %12s %12s\n", "step", "A1 (sop)", "A2 (bdd)"))
	for i := range t1 {
		b.WriteString(fmt.Sprintf("%-10s %12d %12d\n", t1[i].Step, t1[i].Gates, t2[i].Gates))
	}
	final1, final2 := t1[len(t1)-1].Gates, t2[len(t2)-1].Gates
	b.WriteString(fmt.Sprintf("Relative Optimizability Difference: %.4f\n", simil.ROD(final1, final2)))
	return b.String(), nil
}
