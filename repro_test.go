package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/tt"
	"repro/internal/workload"
)

func fullAdderSpec() []tt.TT { return workload.FullAdder() }

func TestSynthesizeAll(t *testing.T) {
	vs := SynthesizeAll(fullAdderSpec())
	if len(vs) != 7 {
		t.Fatalf("got %d variants", len(vs))
	}
	for _, v := range vs[1:] {
		if idx, err := aig.Equivalent(vs[0].AIG, v.AIG); err != nil || idx != -1 {
			t.Fatalf("%s not equivalent (idx=%d err=%v)", v.Recipe, idx, err)
		}
	}
}

func TestDiversityMatrix(t *testing.T) {
	vs := SynthesizeAll(fullAdderSpec())
	m := DiversityMatrix(vs)
	if len(m) != 21 {
		t.Fatalf("got %d pairs", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Score > m[i-1].Score {
			t.Fatal("matrix not sorted descending")
		}
	}
	for _, p := range m {
		if p.Score < 0 {
			t.Fatalf("negative RRR score %f", p.Score)
		}
	}
}

func TestSelectDiverse(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	vs := SynthesizeAll([]tt.TT{tt.Random(6, r)})
	sel := SelectDiverse(vs, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	seen := map[string]bool{}
	for _, v := range sel {
		if seen[v.Recipe] {
			t.Fatal("duplicate selection")
		}
		seen[v.Recipe] = true
	}
	if got := SelectDiverse(vs, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := SelectDiverse(vs, 99); len(got) != len(vs) {
		t.Error("k>=len should return all")
	}
}

func TestOptimizeAndBest(t *testing.T) {
	vs := SynthesizeAll(fullAdderSpec())
	og, err := Optimize(context.Background(), vs[0].AIG, "dc2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if og.NumAnds() > vs[0].AIG.NumAnds() {
		t.Error("optimization grew the AIG")
	}
	best, recipe, err := OptimizeBest(context.Background(), vs, "dc2", 1)
	if err != nil || best == nil || recipe == "" {
		t.Fatalf("OptimizeBest: %v", err)
	}
	if best.NumAnds() > og.NumAnds() {
		t.Error("best-of-all worse than single variant")
	}
	if _, err := Optimize(context.Background(), vs[0].AIG, "bogus", 1); err == nil {
		t.Error("unknown flow should error")
	}
	if _, _, err := OptimizeBest(context.Background(), nil, "dc2", 1); err == nil {
		t.Error("empty variants should error")
	}
}
