package simil

import (
	"math"

	"repro/internal/graph"
)

// This file implements the measures the paper's Section IV-A6 explicitly
// excludes for computational cost — DeltaCon and an approximate Graph
// Edit Distance — as optional extensions, so their cost/benefit can be
// evaluated empirically. They are not part of Metrics(); use
// ExtendedMetrics() or the similarity command.

// DeltaCon computes the DeltaCon0 graph similarity (Koutra et al.): node
// affinities from fast belief propagation, S = (I + eps^2 D - eps A)^-1,
// compared with the Matusita distance and mapped to (0, 1] where 1 means
// identical. Graphs are compared on the shared node numbering, padding
// the smaller one with isolated nodes.
func DeltaCon(a1, a2 *graph.Graph) float64 {
	n := a1.N
	if a2.N > n {
		n = a2.N
	}
	s1, err1 := deltaConAffinity(a1, n)
	s2, err2 := deltaConAffinity(a2, n)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	// Matusita distance over affinity entries.
	d := 0.0
	for i := range s1.Data {
		x := math.Sqrt(math.Max(0, s1.Data[i])) - math.Sqrt(math.Max(0, s2.Data[i]))
		d += x * x
	}
	return 1 / (1 + math.Sqrt(d))
}

func deltaConAffinity(g *graph.Graph, n int) (*graph.Matrix, error) {
	maxDeg := 0
	for u := 0; u < g.N; u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	eps := 1 / (1 + float64(maxDeg))
	m := graph.Identity(n)
	for u := 0; u < g.N; u++ {
		m.Set(u, u, 1+eps*eps*float64(g.Degree(u)))
		for _, v := range g.Neighbors(u) {
			m.Set(u, v, -eps)
		}
	}
	return m.Inverse()
}

// GEDApprox computes an upper-bound approximation of the graph edit
// distance via bipartite assignment (Riesen-Bunke style): nodes are
// matched by local-feature cost with the Hungarian algorithm, and the
// induced edge edits are added. Lower = more similar; 0 for identical
// graphs under a cost-zero assignment. Both mapping directions are
// evaluated and the tighter bound returned, which also makes the
// measure symmetric.
func GEDApprox(a1, a2 *graph.Graph) float64 {
	return math.Min(gedDirected(a1, a2), gedDirected(a2, a1))
}

func gedDirected(a1, a2 *graph.Graph) float64 {
	n := a1.N
	if a2.N > n {
		n = a2.N
	}
	f1 := nodeFeatures(a1, n)
	f2 := nodeFeatures(a2, n)
	cost := graph.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cost.Set(i, j, featureCost(f1[i], f2[j]))
		}
	}
	assign, _ := graph.Hungarian(cost)
	// Node substitution cost.
	total := 0.0
	for i := 0; i < n; i++ {
		total += featureCost(f1[i], f2[assign[i]])
	}
	// Edge edits induced by the mapping: edges present in one graph but
	// not matched in the other cost 1 each.
	e2 := make(map[[2]int]bool)
	for _, e := range a2.Edges() {
		e2[e] = true
	}
	matched := 0
	edges1 := a1.Edges()
	for _, e := range edges1 {
		u, v := assign[e[0]], assign[e[1]]
		if u > v {
			u, v = v, u
		}
		if e2[[2]int{u, v}] {
			matched++
		}
	}
	total += float64(len(edges1) - matched)   // deletions/substitutions
	total += float64(a2.NumEdges() - matched) // insertions
	return total
}

type nodeFeature [3]float64 // degree, clustering, egonet edges

func nodeFeatures(g *graph.Graph, n int) []nodeFeature {
	f := g.NetSimileFeatures()
	fs := make([]nodeFeature, n)
	for u := 0; u < g.N; u++ {
		fs[u] = nodeFeature{f[0][u], f[1][u], f[4][u]}
	}
	return fs
}

func featureCost(a, b nodeFeature) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// ExtendedProfile carries the per-AIG artifacts of the extended metrics.
type ExtendedProfile struct {
	G *graph.Graph
}

// NewExtendedProfile wraps the undirected skeleton for extended-metric
// evaluation. Kept separate from Profile because DeltaCon/GED are
// O(n^3) per pair and deliberately opt-in, exactly as the paper argues.
func NewExtendedProfile(p *Profile) *ExtendedProfile {
	return &ExtendedProfile{G: graphOfProfile(p)}
}

// graphOfProfile rebuilds the undirected skeleton from the profile's AIG.
func graphOfProfile(p *Profile) *graph.Graph {
	return graph.FromAIG(p.A)
}

// ExtendedMetric is a pairwise measure over extended profiles.
type ExtendedMetric struct {
	Name            string
	HigherIsSimilar bool
	Compute         func(a, b *ExtendedProfile) float64
}

// ExtendedMetrics returns the opt-in expensive measures.
func ExtendedMetrics() []ExtendedMetric {
	return []ExtendedMetric{
		{"DeltaCon", true, func(a, b *ExtendedProfile) float64 { return DeltaCon(a.G, b.G) }},
		{"GEDApprox", false, func(a, b *ExtendedProfile) float64 { return GEDApprox(a.G, b.G) }},
	}
}
