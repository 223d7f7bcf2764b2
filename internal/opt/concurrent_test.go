package opt

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// sameGraph reports whether two AIGs are identical node for node.
func sameGraph(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumObjs() != b.NumObjs() || !slices.Equal(a.POs(), b.POs()) {
		return false
	}
	for id := a.NumPIs() + 1; id < a.NumObjs(); id++ {
		a0, a1 := a.Fanins(id)
		b0, b1 := b.Fanins(id)
		if a0 != b0 || a1 != b1 {
			return false
		}
	}
	return true
}

// TestPassesConcurrentMatchSerial runs resub, rewrite, balance and the
// LUT round trip on different AIGs from one goroutine each, as the
// variant workers do, then again serially, and requires identical
// results. Every worker reads the shared gate structures and fills and
// reads synth's structure caches, so under -race this checks that the
// package state they share is safe to use concurrently.
func TestPassesConcurrentMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	var gs []*aig.AIG
	for _, n := range []int{5, 6, 7, 8} {
		gs = append(gs, synth.SynthSOP([]tt.TT{tt.Random(n, r), tt.Random(n, r)}))
	}
	passes := []Pass{passRS, passRW, passB, passLUT6}
	run := func(g *aig.AIG) []*aig.AIG {
		out := make([]*aig.AIG, len(passes))
		for i, p := range passes {
			out[i] = p.Apply(g)
		}
		return out
	}
	concurrent := make([][]*aig.AIG, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(g)
		}()
	}
	wg.Wait()
	for i, g := range gs {
		for j, want := range run(g) {
			if !sameGraph(concurrent[i][j], want) {
				t.Errorf("%s on AIG %d (%d inputs): the concurrent run differs from the serial one", passes[j].Atom, i, g.NumPIs())
			}
		}
	}
}
