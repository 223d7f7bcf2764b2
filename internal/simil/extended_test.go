package simil

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/tt"
)

func extendedPair(t *testing.T, seed int64) (*ExtendedProfile, *ExtendedProfile) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	spec := []tt.TT{tt.Random(5, r)}
	g1 := synth.SynthSOP(spec)
	g2 := synth.SynthBDD(spec)
	p1 := NewProfileFor(g1, ProfileOptions{}, AllArtifacts&^NeedOptScores)
	p2 := NewProfileFor(g2, ProfileOptions{}, AllArtifacts&^NeedOptScores)
	return NewExtendedProfile(p1), NewExtendedProfile(p2)
}

func TestDeltaConIdentity(t *testing.T) {
	e1, e2 := extendedPair(t, 171)
	self := DeltaCon(e1.G, e1.G)
	if math.Abs(self-1) > 1e-9 {
		t.Errorf("DeltaCon(g,g) = %f, want 1", self)
	}
	cross := DeltaCon(e1.G, e2.G)
	if math.IsNaN(cross) || cross <= 0 || cross > 1 {
		t.Errorf("DeltaCon out of (0,1]: %f", cross)
	}
	if cross >= self {
		t.Errorf("different graphs as similar as identical: %f vs %f", cross, self)
	}
}

func TestDeltaConSymmetry(t *testing.T) {
	e1, e2 := extendedPair(t, 172)
	a := DeltaCon(e1.G, e2.G)
	b := DeltaCon(e2.G, e1.G)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("DeltaCon not symmetric: %f vs %f", a, b)
	}
}

func TestGEDApproxAxioms(t *testing.T) {
	e1, e2 := extendedPair(t, 173)
	if got := GEDApprox(e1.G, e1.G); got != 0 {
		t.Errorf("GED(g,g) = %f, want 0", got)
	}
	cross := GEDApprox(e1.G, e2.G)
	if cross < 0 || math.IsNaN(cross) {
		t.Errorf("GED = %f", cross)
	}
	if cross == 0 {
		t.Error("structurally different graphs at GED 0")
	}
}

func TestGEDUpperBoundSanity(t *testing.T) {
	// The approximation is an upper bound: it can never beat the
	// trivial bound of deleting and reinserting everything.
	e1, e2 := extendedPair(t, 174)
	ged := GEDApprox(e1.G, e2.G)
	trivial := float64(e1.G.NumEdges() + e2.G.NumEdges() + e1.G.N + e2.G.N)
	if ged > trivial*3 { // generous sanity margin (feature costs add up)
		t.Errorf("GED %f implausibly large vs trivial bound %f", ged, trivial)
	}
}

func TestExtendedMetricsRegistry(t *testing.T) {
	ms := ExtendedMetrics()
	if len(ms) != 2 {
		t.Fatalf("have %d extended metrics", len(ms))
	}
	e1, e2 := extendedPair(t, 175)
	for _, m := range ms {
		v := m.Compute(e1, e2)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s produced %f", m.Name, v)
		}
		// Symmetry.
		if math.Abs(v-m.Compute(e2, e1)) > 1e-9 {
			t.Errorf("%s not symmetric", m.Name)
		}
	}
}
