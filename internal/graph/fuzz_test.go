package graph

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// decodeGraph turns fuzz bytes into a graph. The first two bytes pick
// the node count (1 to 300, so both sides of MaxDenseNodes); every
// following four bytes add one edge, two little-endian endpoints taken
// modulo the node count (self-loops and duplicates are dropped).
func decodeGraph(data []byte) *Graph {
	n := 1
	if len(data) >= 2 {
		n, data = 1+int(binary.LittleEndian.Uint16(data))%300, data[2:]
	}
	g := New(n)
	for ; len(data) >= 4; data = data[4:] {
		g.AddEdge(int(binary.LittleEndian.Uint16(data))%n, int(binary.LittleEndian.Uint16(data[2:]))%n)
	}
	return g
}

// FuzzSpectrum checks the dense solver's full spectrum on a decoded
// graph against two identities of an adjacency matrix: the eigenvalues
// sum to its trace, 0, and their squares to the trace of A², twice the
// edge count. Up to 48 nodes it also checks each eigenvalue against the
// Jacobi oracle.
//
// Run with: make fuzz   (or: go test -fuzz '^FuzzSpectrum$' ./internal/graph)
func FuzzSpectrum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 0}) // triangle
	f.Add([]byte{6, 0, 0, 0, 3, 0, 0, 0, 4, 0, 1, 0, 3, 0, 2, 0, 5, 0})
	f.Add([]byte{43, 1, 7, 0, 200, 0, 9, 1, 10, 0, 255, 0, 12, 0, 44, 1, 1, 0}) // 300 nodes
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		eig := g.denseEigenvalues()
		if len(eig) != g.N || !sort.IsSorted(sort.Reverse(sort.Float64Slice(eig))) {
			t.Fatalf("%d nodes: %d eigenvalues, or not descending: %v", g.N, len(eig), eig)
		}
		sum, squares := 0.0, 0.0
		for _, x := range eig {
			sum += x
			squares += x * x
		}
		twoE := float64(2 * g.NumEdges())
		tol := 1e-9 * (1 + twoE)
		if math.Abs(sum) > tol || math.Abs(squares-twoE) > tol {
			t.Fatalf("%d nodes, %d edges: Σλ = %g (want 0), Σλ² = %.12g (want %g)", g.N, g.NumEdges(), sum, squares, twoE)
		}
		if g.N <= 48 {
			sameSpectrum(t, "dense vs Jacobi", eig, JacobiEigenvalues(g.AdjacencyMatrix()), 1e-9)
		}
	})
}
