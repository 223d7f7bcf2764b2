package simil

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/synth"
	"repro/internal/tt"
)

// wlHistogramOracle is wlHistogram as first written: signatures built
// by string concatenation over a fresh slice of neighbour labels.
func wlHistogramOracle(g *graph.Graph, iterations int) map[string]int {
	hist := make(map[string]int)
	labels := make([]string, g.N)
	for u := 0; u < g.N; u++ {
		labels[u] = strconv.Itoa(g.Degree(u))
		hist["0:"+labels[u]]++
	}
	for it := 1; it <= iterations; it++ {
		next := make([]string, g.N)
		for u := 0; u < g.N; u++ {
			nb := g.Neighbors(u)
			ns := make([]string, len(nb))
			for i, v := range nb {
				ns[i] = labels[v]
			}
			sort.Strings(ns)
			sig := labels[u]
			for _, s := range ns {
				sig += "|" + s
			}
			h := sha256.Sum256([]byte(sig))
			next[u] = hex.EncodeToString(h[:8])
			hist[strconv.Itoa(it)+":"+next[u]]++
		}
		labels = next
	}
	return hist
}

func randomGraph(r *rand.Rand, n, edges int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < edges; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

// wlTestGraphs returns random graphs (isolated nodes, hubs, and
// degrees of 10 and more, whose decimal labels sort out of numeric
// order) and the skeletons of SOP and BDD AIGs.
func wlTestGraphs(t testing.TB) []*graph.Graph {
	r := rand.New(rand.NewSource(5))
	gs := []*graph.Graph{graph.New(0), graph.New(1), randomGraph(r, 2, 1)}
	for _, n := range []int{7, 40, 300} {
		gs = append(gs, randomGraph(r, n, n/2), randomGraph(r, n, 3*n))
	}
	for _, vars := range []int{3, 5, 6} {
		spec := []tt.TT{tt.Random(vars, r), tt.Random(vars, r)}
		gs = append(gs, graph.FromAIG(synth.SynthSOP(spec)), graph.FromAIG(synth.SynthBDD(spec)))
	}
	return gs
}

// TestWLHistogramMatchesOracle: the buffered refinement produces the
// same histogram, key for key, as string concatenation did, so
// WLKernel scores and sketch MinHashes do not move.
func TestWLHistogramMatchesOracle(t *testing.T) {
	for i, g := range wlTestGraphs(t) {
		for _, iters := range []int{0, 1, wlIterations} {
			got, want := wlHistogram(g, iters), wlHistogramOracle(g, iters)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("graph %d (%d nodes), %d rounds: histograms differ", i, g.N, iters)
			}
		}
	}
}

// TestWLHistogramAllocations pins the refinement to at most one
// allocation per node and round (its histogram key), plus the growth of
// the map and buffers. Concatenation made about five.
func TestWLHistogramAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := graph.FromAIG(synth.SynthSOP([]tt.TT{tt.Random(8, r), tt.Random(8, r)}))
	budget := float64((wlIterations+1)*g.N + 64)
	if got := testing.AllocsPerRun(5, func() { wlHistogram(g, wlIterations) }); got > budget {
		t.Errorf("wlHistogram on %d nodes made %.0f allocations, budget %.0f", g.N, got, budget)
	}
}
