package lutmap

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

func TestMapCoversOutputs(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	spec := []tt.TT{tt.Random(6, r), tt.Random(6, r)}
	g := synth.SynthSOP(spec)
	for _, k := range []int{3, 4, 6} {
		m := Map(g, Options{K: k})
		if len(m.LUTs) == 0 {
			t.Fatalf("k=%d: empty mapping", k)
		}
		for _, lut := range m.LUTs {
			if len(lut.Leaves) > k {
				t.Fatalf("k=%d: LUT with %d leaves", k, len(lut.Leaves))
			}
			// Every non-PI leaf must itself be a mapped root.
			for _, leaf := range lut.Leaves {
				if g.IsAnd(leaf) {
					if _, ok := m.RootOf[leaf]; !ok {
						t.Fatalf("k=%d: leaf %d is not a mapped root", k, leaf)
					}
				}
			}
		}
		// Output drivers must be mapped roots (or PIs/const).
		for i := 0; i < g.NumPOs(); i++ {
			id := g.PO(i).Node()
			if g.IsAnd(id) {
				if _, ok := m.RootOf[id]; !ok {
					t.Fatalf("k=%d: PO driver %d unmapped", k, id)
				}
			}
		}
	}
}

func TestMapFewerLUTsThanNodes(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	g := synth.SynthSOP([]tt.TT{tt.Random(7, r)})
	m := Map(g, Options{K: 4})
	if len(m.LUTs) >= g.NumAnds() {
		t.Errorf("mapping should compress: %d LUTs for %d nodes", len(m.LUTs), g.NumAnds())
	}
}

func TestRoundTripEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for trial := 0; trial < 5; trial++ {
		n := 4 + trial%3
		spec := []tt.TT{tt.Random(n, r), tt.Random(n, r)}
		for _, rec := range synth.Recipes()[:3] {
			g := rec.Build(spec)
			for _, k := range []int{4, 6} {
				ng := RoundTrip(g, Options{K: k})
				idx, err := aig.Equivalent(g, ng)
				if err != nil {
					t.Fatal(err)
				}
				if idx != -1 {
					t.Fatalf("trial %d %s k=%d: round trip broke output %d", trial, rec.Name, k, idx)
				}
				if err := ng.Check(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestRoundTripRestructures(t *testing.T) {
	// The shake-up move should usually change the structure.
	r := rand.New(rand.NewSource(114))
	g := synth.SynthSOP([]tt.TT{tt.Random(7, r)})
	ng := RoundTrip(g, Options{K: 6})
	if ng.NumAnds() == g.NumAnds() && ng.NumLevels() == g.NumLevels() {
		t.Log("round trip kept size and depth (acceptable but unusual)")
	}
}

func TestMapTinyGraphs(t *testing.T) {
	// Single AND.
	g := aig.New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	m := Map(g, Options{K: 4})
	if len(m.LUTs) != 1 {
		t.Errorf("single AND maps to %d LUTs", len(m.LUTs))
	}
	ng := RoundTrip(g, Options{K: 4})
	if idx, _ := aig.Equivalent(g, ng); idx != -1 {
		t.Error("tiny round trip broken")
	}
	// Constant + passthrough outputs.
	g2 := aig.New(2)
	g2.AddPO(aig.LitTrue)
	g2.AddPO(g2.PI(1).Not())
	ng2 := RoundTrip(g2, Options{K: 4})
	if idx, _ := aig.Equivalent(g2, ng2); idx != -1 {
		t.Error("constant/passthrough round trip broken")
	}
}
