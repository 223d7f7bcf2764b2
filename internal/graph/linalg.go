package graph

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Identity returns the n x n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Inverse computes the matrix inverse by Gauss-Jordan elimination with
// partial pivoting. Returns an error when the matrix is singular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("graph: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if math.Abs(a.At(pivot, col)) < 1e-12 {
			return nil, fmt.Errorf("graph: singular matrix at column %d", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	for j := 0; j < m.Cols; j++ {
		m.Data[a*m.Cols+j], m.Data[b*m.Cols+j] = m.Data[b*m.Cols+j], m.Data[a*m.Cols+j]
	}
}

// Hungarian solves the linear assignment problem for a square cost
// matrix, returning the column assigned to each row and the total cost.
// O(n^3) (the Jonker-style shortest augmenting path formulation).
func Hungarian(cost *Matrix) ([]int, float64) {
	if cost.Rows != cost.Cols {
		panic("graph: Hungarian requires a square cost matrix")
	}
	n := cost.Rows
	const inf = math.MaxFloat64
	// Potentials and matching, 1-indexed internally.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	assign := make([]int, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
			total += cost.At(p[j]-1, j-1)
		}
	}
	return assign, total
}
