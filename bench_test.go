package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/harness"
	"repro/internal/lutmap"
	"repro/internal/opt"
	"repro/internal/simil"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/tt"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// One benchmark per paper artifact. Each runs a reduced but complete
// version of the pipeline that regenerates the artifact; cmd/repro runs
// the full-scale version.
// ---------------------------------------------------------------------

// reportStageTimings attaches telemetry-derived per-stage wall-clock
// metrics (synthesis-s/op, profiling-s/op, ...) to a pipeline benchmark,
// so BENCH_*.json entries carry a stage breakdown alongside ns/op. The
// same numbers feed the BENCH_JSON sink (see bench_json_test.go).
func reportStageTimings(b *testing.B, reg *telemetry.Registry) {
	b.Helper()
	for _, st := range harness.Stages() {
		_, sec := harness.StageSeconds(reg, st)
		b.ReportMetric(sec/float64(b.N), st.Label+"-s/op")
		recordStageSeconds(b.Name(), st.Label, sec/float64(b.N))
	}
}

// BenchmarkTableI measures the Table I pipeline: traditional graph
// metrics correlated against ROD under orchestrate.
func BenchmarkTableI(b *testing.B) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	reg.Reset()
	cfg := harness.Config{Seed: 2024, MaxInputs: 6, MaxSpecs: 3, Flows: []string{"orchestrate"}}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TableI() == "" {
			b.Fatal("empty table")
		}
	}
	reportStageTimings(b, reg)
}

// BenchmarkTableII measures the Table II pipeline: the six AIG-specific
// metrics against ROD under all three flows.
func BenchmarkTableII(b *testing.B) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	reg.Reset()
	cfg := harness.Config{Seed: 2024, MaxInputs: 6, MaxSpecs: 3}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TableII() == "" {
			b.Fatal("empty table")
		}
	}
	reportStageTimings(b, reg)
}

// BenchmarkFigure2 measures the trajectory rendering behind Figure 2.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure2("fulladder", 2024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 measures the Figure 3 scatter (Resub Score vs ROD).
func BenchmarkFigure3(b *testing.B) {
	cfg := harness.Config{Seed: 2024, MaxInputs: 6, MaxSpecs: 3, Flows: []string{"orchestrate"}}
	res, err := harness.RunContext(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.Figure3() == "" {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------
// Component benchmarks: the substrate operations the pipeline is built
// from, on a standard mid-size workload.
// ---------------------------------------------------------------------

func benchAIG(b *testing.B) *aig.AIG {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	spec := []tt.TT{tt.Random(8, r), tt.Random(8, r)}
	return synth.SynthSOP(spec)
}

func BenchmarkSynthRecipes(b *testing.B) {
	r := rand.New(rand.NewSource(43))
	spec := []tt.TT{tt.Random(7, r)}
	for _, rec := range synth.Recipes() {
		b.Run(rec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := rec.Build(spec)
				if g.NumPOs() != 1 {
					b.Fatal("bad synthesis")
				}
			}
		})
	}
}

func BenchmarkRewriteOnce(b *testing.B) {
	g := benchAIG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.RewriteOnce(g, opt.RewriteOptions{})
	}
}

func BenchmarkRefactorOnce(b *testing.B) {
	g := benchAIG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.RefactorOnce(g, opt.RefactorOptions{})
	}
}

func BenchmarkResubOnce(b *testing.B) {
	g := benchAIG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ResubOnce(g, opt.ResubOptions{})
	}
}

func BenchmarkBalance(b *testing.B) {
	g := benchAIG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Balance(g)
	}
}

func BenchmarkFlows(b *testing.B) {
	g := benchAIG(b)
	for _, flow := range opt.Flows() {
		b.Run(flow.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				flow.RunCtx(context.Background(), g, 1)
			}
		})
	}
}

func BenchmarkLUTMapRoundTrip(b *testing.B) {
	g := benchAIG(b)
	for _, k := range []int{4, 6} {
		b.Run(map[int]string{4: "k4", 6: "k6"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lutmap.RoundTrip(g, lutmap.Options{K: k})
			}
		})
	}
}

func BenchmarkProfile(b *testing.B) {
	g := benchAIG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simil.NewProfile(g, simil.ProfileOptions{})
	}
}

// BenchmarkProfileArtifacts measures the payoff of the Artifacts split:
// "all" is what every profile build cost before partial computation
// (and still costs when every metric family is requested); each named
// family is what a request needing only that family pays now.
func BenchmarkProfileArtifacts(b *testing.B) {
	g := benchAIG(b)
	cases := []struct {
		name  string
		needs simil.Artifacts
	}{
		{"all", simil.AllArtifacts},
		{"overlap", simil.NeedOverlap},
		{"netsimile", simil.NeedNetSimile},
		{"wl", simil.NeedWL},
		{"spectrum", simil.NeedSpectrum},
		{"optscores", simil.NeedOptScores},
		{"none", 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simil.NewProfileFor(g, simil.ProfileOptions{}, c.needs)
			}
		})
	}
}

// BenchmarkProfileExtend measures growing a minimal profile into a full
// one — the service's cache-upgrade path — against building full from
// scratch.
func BenchmarkProfileExtend(b *testing.B) {
	g := benchAIG(b)
	b.Run("extend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := simil.NewProfileFor(g, simil.ProfileOptions{}, simil.NeedOverlap)
			p.Extend(simil.ProfileOptions{}, simil.AllArtifacts)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simil.NewProfileFor(g, simil.ProfileOptions{}, simil.AllArtifacts)
		}
	})
}

func BenchmarkMetrics(b *testing.B) {
	r := rand.New(rand.NewSource(44))
	spec := []tt.TT{tt.Random(7, r)}
	p1 := simil.NewProfile(synth.SynthSOP(spec), simil.ProfileOptions{})
	p2 := simil.NewProfile(synth.SynthBDD(spec), simil.ProfileOptions{})
	for _, m := range simil.Metrics() {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Compute(p1, p2)
			}
		})
	}
}

func BenchmarkNPNCanon(b *testing.B) {
	r := rand.New(rand.NewSource(45))
	fs := make([]tt.TT, 64)
	for i := range fs {
		fs[i] = tt.Random(4, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.NPNCanon(fs[i%len(fs)])
	}
}

func BenchmarkIsop(b *testing.B) {
	r := rand.New(rand.NewSource(46))
	fs := make([]tt.TT, 16)
	for i := range fs {
		fs[i] = tt.Random(8, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.IsopOf(fs[i%len(fs)])
	}
}

func BenchmarkWorkloadSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(workload.Suite(2024)) != 100 {
			b.Fatal("bad suite")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationRewriteLibrary compares the multi-paradigm
// resynthesis library against each single paradigm, reporting the AND
// count each achieves over a fixed set of 4-input functions (quality
// ablation; lower custom metric = better).
func BenchmarkAblationRewriteLibrary(b *testing.B) {
	r := rand.New(rand.NewSource(47))
	fs := make([]tt.TT, 128)
	for i := range fs {
		fs[i] = tt.Random(4, r)
	}
	variants := []struct {
		name  string
		build func(f tt.TT) *aig.AIG
	}{
		{"best-of-3", synth.BestStructure},
		{"dsd-only", func(f tt.TT) *aig.AIG { return synth.SynthDSD([]tt.TT{f}) }},
		{"factor-only", func(f tt.TT) *aig.AIG { return synth.SynthFactored([]tt.TT{f}) }},
		{"shannon-only", func(f tt.TT) *aig.AIG { return synth.SynthShannon([]tt.TT{f}) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, f := range fs {
					total += v.build(f).NumAnds()
				}
			}
			b.ReportMetric(float64(total)/float64(len(fs)), "ands/func")
		})
	}
}

// BenchmarkAblationRewriteCutSize compares rewriting with K=3..6 cuts:
// runtime per pass plus achieved reduction on a fixed AIG.
func BenchmarkAblationRewriteCutSize(b *testing.B) {
	g := benchAIG(b)
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(map[int]string{3: "k3", 4: "k4", 5: "k5", 6: "k6"}[k], func(b *testing.B) {
			var got int
			for i := 0; i < b.N; i++ {
				got = opt.RewriteOnce(g, opt.RewriteOptions{K: k}).NumAnds()
			}
			b.ReportMetric(float64(g.NumAnds()-got), "nodes-removed")
		})
	}
}

// BenchmarkAblationResubDepth compares resubstitution depths 0/1/2.
func BenchmarkAblationResubDepth(b *testing.B) {
	g := benchAIG(b)
	names := map[int]string{1: "depth1", 2: "depth2"}
	for _, d := range []int{1, 2} {
		b.Run(names[d], func(b *testing.B) {
			var got int
			for i := 0; i < b.N; i++ {
				got = opt.ResubOnce(g, opt.ResubOptions{Depth: d}).NumAnds()
			}
			b.ReportMetric(float64(g.NumAnds()-got), "nodes-removed")
		})
	}
}

// BenchmarkAblationEspresso compares raw ISOP covers against
// espresso-minimized covers (cube count as quality metric).
func BenchmarkAblationEspresso(b *testing.B) {
	r := rand.New(rand.NewSource(48))
	fs := make([]tt.TT, 32)
	for i := range fs {
		fs[i] = tt.Random(7, r)
	}
	b.Run("isop", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total = 0
			for _, f := range fs {
				total += len(tt.IsopOf(f))
			}
		}
		b.ReportMetric(float64(total)/float64(len(fs)), "cubes/func")
	})
	b.Run("espresso", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total = 0
			for _, f := range fs {
				total += sopMinCubes(f)
			}
		}
		b.ReportMetric(float64(total)/float64(len(fs)), "cubes/func")
	})
}
