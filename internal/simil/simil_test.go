package simil

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

func profileOf(t *testing.T, a *aig.AIG) *Profile {
	t.Helper()
	return NewProfile(a, ProfileOptions{})
}

func twoVariants(t *testing.T, n int, seed int64) (*Profile, *Profile, []tt.TT) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	spec := []tt.TT{tt.Random(n, r), tt.Random(n, r)}
	g1 := synth.SynthSOP(spec)
	g2 := synth.SynthBDD(spec)
	return profileOf(t, g1), profileOf(t, g2), spec
}

func TestIdentityAxioms(t *testing.T) {
	p, _, _ := twoVariants(t, 5, 141)
	if got := VEO(p, p); got != 1 {
		t.Errorf("VEO(p,p) = %f, want 1", got)
	}
	if got := NetSimile(p, p); got != 0 {
		t.Errorf("NetSimile(p,p) = %f, want 0", got)
	}
	if got := WLKernel(p, p); math.Abs(got-1) > 1e-12 {
		t.Errorf("WLKernel(p,p) = %f, want 1", got)
	}
	if got := ASD(p, p); got != 0 {
		t.Errorf("ASD(p,p) = %f, want 0", got)
	}
	for _, m := range Metrics() {
		if m.Kind == AIGSpecific {
			if got := m.Compute(p, p); got != 0 {
				t.Errorf("%s(p,p) = %f, want 0", m.Name, got)
			}
		}
	}
}

func TestSymmetry(t *testing.T) {
	p1, p2, _ := twoVariants(t, 5, 142)
	for _, m := range Metrics() {
		a, b := m.Compute(p1, p2), m.Compute(p2, p1)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("%s not symmetric: %f vs %f", m.Name, a, b)
		}
	}
}

func TestRanges(t *testing.T) {
	p1, p2, _ := twoVariants(t, 6, 143)
	if v := VEO(p1, p2); v < 0 || v > 1 {
		t.Errorf("VEO out of [0,1]: %f", v)
	}
	if v := WLKernel(p1, p2); v < 0 || v > 1+1e-12 {
		t.Errorf("WLKernel out of [0,1]: %f", v)
	}
	if v := RGC(p1, p2); v < 0 || v > 1 {
		t.Errorf("RGC out of [0,1]: %f", v)
	}
	if v := RLC(p1, p2); v < 0 || v > 1 {
		t.Errorf("RLC out of [0,1]: %f", v)
	}
	if v := RRRScore(p1, p2); v < 0 || v > math.Sqrt(3)+1e-12 {
		t.Errorf("RRR out of range: %f", v)
	}
	for _, m := range Metrics() {
		if v := m.Compute(p1, p2); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s produced %f", m.Name, v)
		}
	}
}

func TestDissimilarStructuresScoreWorseThanIdentical(t *testing.T) {
	p1, p2, _ := twoVariants(t, 6, 144)
	if VEO(p1, p2) >= VEO(p1, p1) {
		t.Error("VEO: different structures as similar as identical")
	}
	if NetSimile(p1, p2) <= 0 {
		t.Error("NetSimile: different structures at distance 0")
	}
	if WLKernel(p1, p2) >= 1 {
		t.Error("WL: different structures at kernel 1")
	}
}

func TestRGCFormula(t *testing.T) {
	// Hand check Eq. 2 with synthetic profiles.
	p1 := &Profile{Gates: 30, Levels: 5}
	p2 := &Profile{Gates: 10, Levels: 15}
	if got := RGC(p1, p2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RGC = %f, want 0.5", got)
	}
	if got := RLC(p1, p2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RLC = %f, want 0.5", got)
	}
	empty := &Profile{}
	if RGC(empty, empty) != 0 || RLC(empty, empty) != 0 {
		t.Error("degenerate profiles should score 0")
	}
}

func TestOpScoresFormula(t *testing.T) {
	p1 := &Profile{reductions: [3]float64{0.5, 0.2, 0.1}}
	p2 := &Profile{reductions: [3]float64{0.1, 0.2, 0.4}}
	if got := RewriteScore(p1, p2); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("RewriteScore = %f", got)
	}
	if got := RefactorScore(p1, p2); got != 0 {
		t.Errorf("RefactorScore = %f", got)
	}
	if got := ResubScore(p1, p2); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("ResubScore = %f", got)
	}
	want := math.Sqrt(0.4*0.4 + 0.3*0.3)
	if got := RRRScore(p1, p2); math.Abs(got-want) > 1e-12 {
		t.Errorf("RRRScore = %f, want %f", got, want)
	}
}

func TestRODFormula(t *testing.T) {
	if got := ROD(50, 100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ROD(50,100) = %f", got)
	}
	if got := ROD(100, 50); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ROD(100,50) = %f", got)
	}
	if ROD(70, 70) != 0 {
		t.Error("ROD of equal sizes should be 0")
	}
	if ROD(0, 0) != 0 {
		t.Error("ROD(0,0) should be 0")
	}
	if ROD(0, 10) != 1 {
		t.Error("ROD(0,10) should be 1")
	}
}

func TestOptReductionsNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(145))
	spec := []tt.TT{tt.Random(5, r)}
	for _, rec := range synth.Recipes() {
		g := rec.Build(spec)
		red := OptReductions(g)
		for i, v := range red {
			if v < 0 || v > 1 {
				t.Errorf("%s: reduction[%d] = %f out of [0,1]", rec.Name, i, v)
			}
		}
	}
	// Constant AIG: zero reductions.
	g := aig.New(2)
	g.AddPO(aig.LitTrue)
	if red := OptReductions(g); red != [3]float64{} {
		t.Errorf("constant AIG reductions = %v", red)
	}
}

func TestMetricRegistry(t *testing.T) {
	ms := Metrics()
	if len(ms) != 10 {
		t.Fatalf("have %d metrics, want 10", len(ms))
	}
	trad, spec := 0, 0
	for _, m := range ms {
		if m.Kind == Traditional {
			trad++
		} else {
			spec++
		}
	}
	if trad != 4 || spec != 6 {
		t.Errorf("metric split %d/%d, want 4/6", trad, spec)
	}
	if _, ok := MetricByName("RRRScore"); !ok {
		t.Error("RRRScore missing")
	}
	if _, ok := MetricByName("nope"); ok {
		t.Error("bogus metric found")
	}
}

// TestSkipOptScores: a Needs mask without NeedOptScores skips the
// single-step optimization runs and nothing else.
func TestSkipOptScores(t *testing.T) {
	r := rand.New(rand.NewSource(146))
	g := synth.SynthSOP([]tt.TT{tt.Random(4, r)})
	p := NewProfileFor(g, ProfileOptions{}, AllArtifacts&^NeedOptScores)
	if p.Reductions() != [3]float64{} {
		t.Error("a profile without NeedOptScores should leave reductions zero")
	}
	if len(p.spectrum) == 0 {
		t.Error("spectrum should still be computed")
	}
}

func TestProfileDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(147))
	g := synth.SynthSOP([]tt.TT{tt.Random(6, r)})
	p1 := NewProfile(g, ProfileOptions{Seed: 5})
	p2 := NewProfile(g, ProfileOptions{Seed: 5})
	for _, m := range Metrics() {
		if v := m.Compute(p1, p2); m.HigherIsSimilar {
			if m.Name == "VEO" && v != 1 {
				t.Errorf("VEO of identical profiles = %f", v)
			}
		} else if v != 0 {
			t.Errorf("%s of identical profiles = %f", m.Name, v)
		}
	}
}

// TestProfileArtifactsStaged: a profile grown incrementally through
// NewProfileFor + Extend must score bit-identically to one built with
// everything up front — the invariant the service result cache rests
// on.
func TestProfileArtifactsStaged(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	spec := []tt.TT{tt.Random(6, r), tt.Random(6, r)}
	g1, g2 := synth.SynthSOP(spec), synth.SynthBDD(spec)
	opts := ProfileOptions{Seed: 9}

	full1, full2 := NewProfile(g1, opts), NewProfile(g2, opts)
	part1 := NewProfileFor(g1, opts, NeedOverlap)
	part2 := NewProfileFor(g2, opts, NeedOverlap)
	if got := part1.Has(); got != NeedOverlap {
		t.Fatalf("partial profile has %b, want only overlap", got)
	}
	part1.Extend(opts, NeedWL|NeedSpectrum)
	if got := part1.Has(); got != NeedOverlap|NeedWL|NeedSpectrum {
		t.Fatalf("extended profile has %b", got)
	}
	part1.Extend(opts, AllArtifacts)
	part2.Extend(opts, AllArtifacts)
	if part1.Has() != AllArtifacts || part2.Has() != AllArtifacts {
		t.Fatalf("extended profiles have %b and %b, want all", part1.Has(), part2.Has())
	}
	for _, m := range Metrics() {
		if staged, fresh := m.Compute(part1, part2), m.Compute(full1, full2); staged != fresh {
			t.Errorf("%s: staged profile scores %v, full profile %v", m.Name, staged, fresh)
		}
	}
}

// TestNeedsUnion: the per-metric artifact declarations must union
// correctly and cover exactly what the metric families require.
func TestNeedsUnion(t *testing.T) {
	byName := func(names ...string) []Metric {
		out := make([]Metric, len(names))
		for i, n := range names {
			m, ok := MetricByName(n)
			if !ok {
				t.Fatalf("unknown metric %q", n)
			}
			out[i] = m
		}
		return out
	}
	if got := Needs(byName("RGC", "RLC")); got != 0 {
		t.Errorf("Needs(RGC,RLC) = %b, want 0 (stats only)", got)
	}
	if got := Needs(byName("VEO", "ASD")); got != NeedOverlap|NeedSpectrum {
		t.Errorf("Needs(VEO,ASD) = %b", got)
	}
	// No metric reads the sketch directly — it is a retrieval artifact,
	// requested explicitly by indexing callers.
	if got := Needs(Metrics()); got != AllArtifacts&^NeedSketch {
		t.Errorf("Needs(all) = %b, want AllArtifacts minus sketch", got)
	}
}

// TestSketchArtifact: NeedSketch pulls in its parent families, the
// signature is byte-stable across staged and up-front builds, and a
// profile built without it carries none.
func TestSketchArtifact(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	spec := []tt.TT{tt.Random(6, r), tt.Random(6, r)}
	g := synth.SynthSOP(spec)
	opts := ProfileOptions{Seed: 4}

	direct := NewProfileFor(g, opts, NeedSketch)
	if got := direct.Has(); got != NeedSketch|NeedWL|NeedNetSimile {
		t.Fatalf("NeedSketch profile has %b, want sketch plus parents", got)
	}
	if direct.Sketch() == nil {
		t.Fatal("NeedSketch profile has nil signature")
	}

	staged := NewProfileFor(g, opts, NeedWL)
	staged.Extend(opts, NeedSketch)
	full := NewProfile(g, opts)
	if full.Sketch() == nil {
		t.Fatal("AllArtifacts profile has nil signature")
	}
	want := *direct.Sketch()
	for name, p := range map[string]*Profile{"staged": staged, "full": full} {
		if *p.Sketch() != want {
			t.Errorf("%s build produced a different signature", name)
		}
	}

	if plain := NewProfileFor(g, opts, NeedOverlap); plain.Sketch() != nil {
		t.Error("profile without NeedSketch carries a signature")
	}
}

// TestExtendRespectsSkipOptScores: Extend computes exactly the families
// its mask asks for, so a profile built without NeedOptScores gains them
// only when an Extend mask includes NeedOptScores.
func TestExtendRespectsSkipOptScores(t *testing.T) {
	r := rand.New(rand.NewSource(153))
	g := synth.SynthSOP([]tt.TT{tt.Random(5, r)})
	opts := ProfileOptions{}
	skip := AllArtifacts &^ NeedOptScores
	p := NewProfileFor(g, opts, skip)
	if p.Has()&NeedOptScores != 0 {
		t.Error("profile built without NeedOptScores still computed opt scores")
	}
	p.Extend(opts, skip)
	if p.Has()&NeedOptScores != 0 || p.Reductions() != [3]float64{} {
		t.Error("Extend without NeedOptScores computed opt scores")
	}
	p.Extend(opts, NeedOptScores)
	if p.Has()&NeedOptScores == 0 || p.Reductions() != OptReductions(g) {
		t.Error("Extend with NeedOptScores did not compute the opt scores")
	}
}
