package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/aig"
)

func triangle() *Graph {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	return g
}

func TestBasics(t *testing.T) {
	g := triangle()
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	g.AddEdge(0, 1) // duplicate
	g.AddEdge(1, 1) // self-loop
	if g.NumEdges() != 3 {
		t.Errorf("dup/self-loop changed edges: %d", g.NumEdges())
	}
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d", g.Degree(0))
	}
	edges := g.Edges()
	if len(edges) != 3 || edges[0] != [2]int{0, 1} {
		t.Errorf("Edges = %v", edges)
	}
}

func TestClustering(t *testing.T) {
	g := triangle()
	for u := 0; u < 3; u++ {
		if g.Clustering(u) != 1 {
			t.Errorf("triangle clustering(%d) = %f", u, g.Clustering(u))
		}
	}
	// Star: center clustering 0.
	s := New(4)
	s.AddEdge(0, 1)
	s.AddEdge(0, 2)
	s.AddEdge(0, 3)
	if s.Clustering(0) != 0 {
		t.Error("star center clustering should be 0")
	}
	if s.Clustering(1) != 0 {
		t.Error("leaf clustering should be 0")
	}
}

// egonetStatsOracle is the map-based egonet count NetSimileFeatures
// replaced: for node u's egonet (u plus its neighbors), the number of
// internal edges, the number of edges leaving it, and the number of
// distinct outside neighbors.
func egonetStatsOracle(g *Graph, u int) (within, outgoing, outsideNeighbors int) {
	ego := map[int]bool{u: true}
	for _, v := range g.adj[u] {
		ego[v] = true
	}
	outside := map[int]bool{}
	for m := range ego {
		for _, w := range g.adj[m] {
			if ego[w] {
				within++ // counted twice
			} else {
				outgoing++
				outside[w] = true
			}
		}
	}
	return within / 2, outgoing, len(outside)
}

func TestEgonetStats(t *testing.T) {
	// Path 0-1-2-3: ego(1) = {0,1,2}; edges within = 2 (01, 12);
	// outgoing = 1 (2-3); outside neighbors = {3}.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	f := g.NetSimileFeatures()
	if f[4][1] != 2 || f[5][1] != 1 || f[6][1] != 1 {
		t.Errorf("egonet of node 1 = %v,%v,%v", f[4][1], f[5][1], f[6][1])
	}
	if within, outgoing, outside := egonetStatsOracle(g, 1); within != 2 || outgoing != 1 || outside != 1 {
		t.Errorf("egonetStatsOracle(1) = %d,%d,%d", within, outgoing, outside)
	}
}

// TestEgonetsMatchOracle requires NetSimileFeatures' egonet counts to
// equal the map-based oracle's on every node of random graphs and AIG
// skeletons, sparse and dense, with isolated nodes and shared outside
// neighbors.
func TestEgonetsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	var graphs []*Graph
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		graphs = append(graphs, randomGraph(r, n, r.Intn(4*n+1)), randomSkeleton(r, 1+r.Intn(8), r.Intn(50)))
	}
	for gi, g := range graphs {
		f := g.NetSimileFeatures()
		for u := 0; u < g.N; u++ {
			within, outgoing, outside := egonetStatsOracle(g, u)
			if f[4][u] != float64(within) || f[5][u] != float64(outgoing) || f[6][u] != float64(outside) {
				t.Fatalf("graph %d (%d nodes, %d edges) node %d: egonet %v,%v,%v, oracle %d,%d,%d",
					gi, g.N, g.NumEdges(), u, f[4][u], f[5][u], f[6][u], within, outgoing, outside)
			}
		}
	}
}

// TestNetSimileConcurrentMatchesSerial computes the NetSimile features
// and top eigenvalues of the same graphs from four goroutines at once,
// as harness and aigd workers do, and requires each result to equal the
// serial one.
func TestNetSimileConcurrentMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	var graphs []*Graph
	for i := 0; i < 8; i++ {
		graphs = append(graphs, randomSkeleton(r, 2+i, 20+40*i))
	}
	run := func(g *Graph) []float64 {
		f := g.NetSimileFeatures()
		return append(slices.Concat(f[:]...), g.TopEigenvalues(20, 7)...)
	}
	var want [][]float64
	for _, g := range graphs {
		want = append(want, run(g))
	}
	var wg sync.WaitGroup
	got := make([][][]float64, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, g := range graphs {
				got[w] = append(got[w], run(g))
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range graphs {
			if !slices.Equal(got[w][i], want[i]) {
				t.Fatalf("worker %d graph %d: features or spectrum differ from the serial run", w, i)
			}
		}
	}
}

func TestFromAIG(t *testing.T) {
	a := aig.New(2)
	n := a.And(a.PI(0), a.PI(1).Not())
	a.AddPO(n)
	g := FromAIG(a)
	if g.N != a.NumObjs() {
		t.Errorf("N = %d", g.N)
	}
	// Edges: node-PI0, node-PI1 (inversion dropped).
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(n.Node()) != 2 {
		t.Error("AND node degree wrong")
	}
}

func TestNetSimileFeatures(t *testing.T) {
	g := triangle()
	f := g.NetSimileFeatures()
	for u := 0; u < 3; u++ {
		if f[0][u] != 2 || f[1][u] != 1 || f[2][u] != 2 || f[3][u] != 1 {
			t.Errorf("node %d features: %v %v %v %v", u, f[0][u], f[1][u], f[2][u], f[3][u])
		}
		if f[4][u] != 3 || f[5][u] != 0 || f[6][u] != 0 {
			t.Errorf("node %d egonet features: %v %v %v", u, f[4][u], f[5][u], f[6][u])
		}
	}
}

// JacobiEigenvalues computes all eigenvalues of a dense symmetric matrix
// by cyclic Jacobi rotations, in descending order. It shares no code
// with the solvers TopEigenvalues uses, so the tests check those against
// it.
func JacobiEigenvalues(a [][]float64) []float64 {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	for sweep := 0; sweep < 64; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-15 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = m[i][i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig
}

// AdjacencyMatrix returns the dense adjacency matrix of the graph.
func (g *Graph) AdjacencyMatrix() [][]float64 {
	m := make([][]float64, g.N)
	for i := range m {
		m[i] = make([]float64, g.N)
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.adj[u] {
			m[u][v] = 1
		}
	}
	return m
}

// randomGraph returns a graph of n nodes and up to m random edges.
func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

// randomSkeleton returns the skeleton of a random AIG with the given
// inputs and up to ands AND nodes. Node 0 and any input no AND reads are
// isolated, as in the skeletons the similarity metrics see.
func randomSkeleton(r *rand.Rand, inputs, ands int) *Graph {
	a := aig.New(inputs)
	lits := make([]aig.Lit, inputs)
	for i := range lits {
		lits[i] = a.PI(i)
	}
	for i := 0; i < ands; i++ {
		x := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 0)
		y := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 0)
		lits = append(lits, a.And(x, y))
	}
	a.AddPO(lits[len(lits)-1])
	return FromAIG(a)
}

// sameSpectrum fails t unless got and want agree entry by entry within
// tol.
func sameSpectrum(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d eigenvalues, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: eig[%d] = %.15g, want %.15g", what, i, got[i], want[i])
		}
	}
}

func TestJacobiKnownSpectra(t *testing.T) {
	// Triangle (K3): eigenvalues 2, -1, -1.
	eig := JacobiEigenvalues(triangle().AdjacencyMatrix())
	want := []float64{2, -1, -1}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-9 {
			t.Errorf("K3 eig[%d] = %f, want %f", i, eig[i], want[i])
		}
	}
	// Path P3: sqrt(2), 0, -sqrt(2).
	p := New(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	eig = JacobiEigenvalues(p.AdjacencyMatrix())
	want = []float64{math.Sqrt2, 0, -math.Sqrt2}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-9 {
			t.Errorf("P3 eig[%d] = %f, want %f", i, eig[i], want[i])
		}
	}
}

func TestTridiagAgainstJacobi(t *testing.T) {
	// Random symmetric tridiagonal matrix, both solvers must agree.
	r := rand.New(rand.NewSource(121))
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = r.NormFloat64()
	}
	for i := range e {
		e[i] = r.NormFloat64()
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = d[i]
	}
	for i := range e {
		m[i][i+1] = e[i]
		m[i+1][i] = e[i]
	}
	got := tridiagEigenvalues(d, e)
	want := JacobiEigenvalues(m)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("eig[%d]: tridiag %f vs jacobi %f", i, got[i], want[i])
		}
	}
}

// TestDenseAgainstJacobi checks the Householder solver's full spectrum
// against the Jacobi oracle on random graphs of 1 to MaxDenseNodes nodes
// and on random AIG skeletons, whose isolated nodes give zero rows.
func TestDenseAgainstJacobi(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	var graphs []*Graph
	for n := 1; n < MaxDenseNodes; n = 2*n + 1 {
		graphs = append(graphs, New(n), randomGraph(r, n, r.Intn(3*n+1)))
	}
	// Skeletons of up to 1+8+247 = MaxDenseNodes nodes.
	for _, size := range [][2]int{{1, 1}, {3, 4}, {6, 40}, {10, 120}, {8, 247}} {
		graphs = append(graphs, randomSkeleton(r, size[0], size[1]))
	}
	// Sparse graphs FuzzSpectrum found. Their tridiagonal forms carry
	// chains of rounding-level entries between zero diagonal entries,
	// where tql1 lost eigenvalues: its split test was only local, and it
	// mistook a sweep that ended with r == 0 for an underflow.
	for _, c := range []struct {
		n     int
		edges [][2]int
	}{
		{254, [][2]int{{10, 184}, {119, 144}, {144, 147}, {145, 153}, {145, 163}, {146, 217}, {153, 185}, {160, 185}}},
		{152, [][2]int{{0, 52}, {8, 69}, {24, 68}, {25, 48}, {25, 69}, {25, 122}, {46, 52}, {46, 122}, {48, 93}, {49, 52}, {68, 96}, {80, 111}}},
		{254, [][2]int{{10, 146}, {34, 185}, {144, 153}, {144, 185}, {145, 153}, {147, 163}, {160, 184}}},
	} {
		g := New(c.n)
		for _, e := range c.edges {
			g.AddEdge(e[0], e[1])
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		what := fmt.Sprintf("%d nodes, %d edges", g.N, g.NumEdges())
		sameSpectrum(t, what, g.denseEigenvalues(), JacobiEigenvalues(g.AdjacencyMatrix()), 1e-9)
	}
}

// TestLanczosAgainstDense checks the Lanczos path, which TopEigenvalues
// takes above MaxDenseNodes, against the exact top of the dense spectrum
// under two seeds.
func TestLanczosAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(122))
	const k = 20
	for _, n := range []int{MaxDenseNodes + 1, 300, 400} {
		g := randomGraph(r, n, 3*n)
		want := g.denseEigenvalues()[:k]
		for _, seed := range []int64{11, 22} {
			what := fmt.Sprintf("%d nodes, seed %d", n, seed)
			sameSpectrum(t, what, g.TopEigenvalues(k, seed), want, 1e-6)
		}
	}
}

// TestTopEigenvaluesByValue takes the top k by value, not by magnitude:
// K3,4 has eigenvalues ±√12 and five zeros, so its top two are √12 and
// 0, where ranking by magnitude kept −√12.
func TestTopEigenvaluesByValue(t *testing.T) {
	g := New(7)
	for u := 0; u < 3; u++ {
		for v := 3; v < 7; v++ {
			g.AddEdge(u, v)
		}
	}
	sameSpectrum(t, "K3,4 top 2", g.TopEigenvalues(2, 1), []float64{math.Sqrt(12), 0}, 1e-9)
	sameSpectrum(t, "K3,4 top 7", g.TopEigenvalues(7, 1), []float64{math.Sqrt(12), 0, 0, 0, 0, 0, -math.Sqrt(12)}, 1e-9)
}

func TestTopEigenvaluesSmallFallback(t *testing.T) {
	g := triangle()
	eig := g.TopEigenvalues(2, 1)
	if len(eig) != 2 {
		t.Fatalf("len = %d", len(eig))
	}
	if math.Abs(eig[0]-2) > 1e-9 || math.Abs(eig[1]+1) > 1e-9 {
		t.Errorf("eig = %v", eig)
	}
	if got := g.TopEigenvalues(99, 1); len(got) != 3 {
		t.Errorf("k>n should clamp: %v", got)
	}
	empty := New(0)
	if got := empty.TopEigenvalues(3, 1); got != nil {
		t.Error("empty graph should yield nil")
	}
}

// TestTopEigenvaluesCountAndOrder checks that TopEigenvalues returns
// min(k, n) values in descending order on both solver paths.
func TestTopEigenvaluesCountAndOrder(t *testing.T) {
	r := rand.New(rand.NewSource(124))
	for _, n := range []int{1, 5, 19, 20, 21, 100, MaxDenseNodes, MaxDenseNodes + 1} {
		g := randomGraph(r, n, 2*n)
		for _, k := range []int{1, 20, 50} {
			eig := g.TopEigenvalues(k, 7)
			if len(eig) != min(k, n) {
				t.Errorf("%d nodes, k=%d: %d values, want %d", n, k, len(eig), min(k, n))
			}
			if !sort.IsSorted(sort.Reverse(sort.Float64Slice(eig))) {
				t.Errorf("%d nodes, k=%d: not descending: %v", n, k, eig)
			}
		}
	}
}

// spectrumSink keeps the benchmarks' results live.
var spectrumSink []float64

// BenchmarkTopEigenvalues times the top 20 of random graphs with two
// edges per node: dense up to MaxDenseNodes, Lanczos at 512.
func BenchmarkTopEigenvalues(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		g := randomGraph(rand.New(rand.NewSource(int64(n))), n, 2*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spectrumSink = g.TopEigenvalues(20, 1)
			}
		})
	}
}

// BenchmarkDenseVsLanczos times both solvers on the same random graphs
// around MaxDenseNodes, the measurement that placed the bound.
func BenchmarkDenseVsLanczos(b *testing.B) {
	for _, n := range []int{128, 200, 256, 300, 400, 611} {
		g := randomGraph(rand.New(rand.NewSource(int64(n))), n, 2*n)
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spectrumSink = g.denseEigenvalues()
			}
		})
		b.Run(fmt.Sprintf("lanczos/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spectrumSink = g.lanczosEigenvalues(20, 1)
			}
		})
	}
}
