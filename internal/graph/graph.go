// Package graph provides the undirected-graph machinery behind the
// traditional similarity metrics: AIG-to-undirected conversion, local
// structure features (degrees, clustering, egonets), and the top of the
// adjacency spectrum for spectral distances: exact from Householder
// tridiagonalization and QL up to MaxDenseNodes nodes, from a seeded
// Lanczos iteration above.
package graph

import (
	"sort"

	"repro/internal/aig"
)

// Graph is a simple undirected graph with nodes 0..N-1.
type Graph struct {
	N   int
	adj [][]int
}

// New creates an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge inserts an undirected edge, ignoring self-loops and duplicates.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// Neighbors returns the adjacency list of u (not copied).
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n / 2
}

// Edges returns all edges as normalized (min,max) pairs, sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u, a := range g.adj {
		for _, v := range a {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// FromAIG converts an AIG to its undirected skeleton, as the paper
// prescribes for the traditional metrics: inversion tags and edge
// direction are dropped and parallel edges merged. Node numbering is the
// AIG's: 0 is unused (constant), 1..numPIs are inputs, the rest AND
// nodes, giving the "consistent node numbering" the paper relies on.
func FromAIG(a *aig.AIG) *Graph {
	g := New(a.NumObjs())
	for id := a.NumPIs() + 1; id < a.NumObjs(); id++ {
		f0, f1 := a.Fanins(id)
		g.AddEdge(id, f0.Node())
		g.AddEdge(id, f1.Node())
	}
	return g
}

// hasEdge reports adjacency (linear scan: AIG skeletons have degree <= ~3
// on the fanin side; fanout-heavy nodes are rare).
func (g *Graph) hasEdge(u, v int) bool {
	a, b := u, v
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Clustering returns the local clustering coefficient of u: the fraction
// of neighbor pairs that are themselves connected.
func (g *Graph) Clustering(u int) float64 {
	nb := g.adj[u]
	d := len(nb)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.hasEdge(nb[i], nb[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(d*(d-1))
}

// NetSimileFeatures extracts the seven per-node NetSimile features
// (Berlingerio et al.): degree, clustering coefficient, average neighbor
// degree, average neighbor clustering coefficient, egonet edges, egonet
// outgoing edges, egonet neighbors. The result is indexed
// [feature][node].
func (g *Graph) NetSimileFeatures() [7][]float64 {
	var f [7][]float64
	for i := range f {
		f[i] = make([]float64, g.N)
	}
	clustering := make([]float64, g.N)
	for u := 0; u < g.N; u++ {
		clustering[u] = g.Clustering(u)
	}
	mark := make([]int, g.N)
	for u := 0; u < g.N; u++ {
		d := float64(g.Degree(u))
		f[0][u] = d
		f[1][u] = clustering[u]
		sumDeg, sumClu := 0.0, 0.0
		for _, v := range g.adj[u] {
			sumDeg += float64(g.Degree(v))
			sumClu += clustering[v]
		}
		if len(g.adj[u]) > 0 {
			f[2][u] = sumDeg / d
			f[3][u] = sumClu / d
		}
		within, outgoing, outside := g.egonet(u, mark)
		f[4][u] = float64(within)
		f[5][u] = float64(outgoing)
		f[6][u] = float64(outside)
	}
	return f
}

// egonet returns, for node u's egonet (u plus its neighbors): the number
// of internal edges, the number of edges leaving it, and the number of
// distinct outside neighbors. mark[w] becomes 2u+1 while w is in the
// egonet and 2u+2 once w is counted as an outside neighbor, so calls in
// ascending order of u share one mark slice, zeroed once.
func (g *Graph) egonet(u int, mark []int) (within, outgoing, outside int) {
	in, out := 2*u+1, 2*u+2
	mark[u] = in
	for _, v := range g.adj[u] {
		mark[v] = in
	}
	count := func(m int) {
		for _, w := range g.adj[m] {
			switch mark[w] {
			case in:
				within++ // counted from both ends
			case out:
				outgoing++
			default:
				outgoing++
				outside++
				mark[w] = out
			}
		}
	}
	count(u)
	for _, v := range g.adj[u] {
		count(v)
	}
	return within / 2, outgoing, outside
}
