package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Mul returns m * other. The tests use it to check Inverse.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("graph: matmul dims %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Error("At/Set wrong")
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Error("identity wrong")
			}
		}
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone not deep")
	}
}

func TestMatMul(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	// a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(a.Data, vals)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-12 {
			t.Fatalf("matmul[%d] = %f, want %f", i, c.Data[i], w)
		}
	}
}

func TestInverse(t *testing.T) {
	r := rand.New(rand.NewSource(161))
	for trial := 0; trial < 10; trial++ {
		n := 2 + trial
		m := NewMatrix(n, n)
		// Diagonally dominant => invertible.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
			m.Set(i, i, m.At(i, i)+float64(n)+1)
		}
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("trial %d: M*M^-1 deviates at (%d,%d): %f", trial, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Inverse(); err == nil {
		t.Error("singular matrix should error")
	}
	if _, err := NewMatrix(2, 3).Inverse(); err == nil {
		t.Error("non-square should error")
	}
}

func TestHungarianKnown(t *testing.T) {
	// Classic 3x3 example: optimal assignment cost 5 (0->1, 1->0, 2->2).
	c := NewMatrix(3, 3)
	copy(c.Data, []float64{
		4, 1, 3,
		2, 0, 5,
		3, 2, 2,
	})
	assign, total := Hungarian(c)
	if math.Abs(total-5) > 1e-12 {
		t.Fatalf("total = %f, want 5 (assign %v)", total, assign)
	}
	// Assignment must be a permutation.
	seen := make([]bool, 3)
	for _, j := range assign {
		if j < 0 || j >= 3 || seen[j] {
			t.Fatalf("invalid assignment %v", assign)
		}
		seen[j] = true
	}
}

func TestHungarianAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(162))
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%4
		c := NewMatrix(n, n)
		for i := range c.Data {
			c.Data[i] = float64(r.Intn(20))
		}
		_, got := Hungarian(c)
		want := bruteAssign(c)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): hungarian %f vs brute %f", trial, n, got, want)
		}
	}
}

func bruteAssign(c *Matrix) float64 {
	n := c.Rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.MaxFloat64
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			s := 0.0
			for i, j := range perm {
				s += c.At(i, j)
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}
