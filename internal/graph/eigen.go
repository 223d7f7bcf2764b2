package graph

import (
	"math"
	"math/rand"
	"sort"
)

// MaxDenseNodes is the largest graph whose spectrum TopEigenvalues takes
// from the exact dense solver. Above it a seeded Lanczos iteration
// approximates the top of the spectrum: its cost grows with the edges
// rather than with n³, and on random graphs of two edges per node it
// overtakes the dense solver between 256 and 300 nodes
// (BenchmarkDenseVsLanczos).
const MaxDenseNodes = 256

// matVec computes the adjacency-matrix product y = A x.
func (g *Graph) matVec(x, y []float64) {
	for u := 0; u < g.N; u++ {
		s := 0.0
		for _, v := range g.adj[u] {
			s += x[v]
		}
		y[u] = s
	}
}

// TopEigenvalues returns the k largest adjacency eigenvalues by value,
// in descending order, as NetComp's λ-distance ranks them; a graph of
// fewer than k nodes yields all n. Graphs of at most MaxDenseNodes nodes
// get the exact spectrum, so the seed is unused there; larger graphs get
// Ritz values from a Lanczos iteration started from a vector drawn from
// seed.
func (g *Graph) TopEigenvalues(k int, seed int64) []float64 {
	k = min(k, g.N)
	if k <= 0 {
		return nil
	}
	var eig []float64
	if g.N <= MaxDenseNodes {
		eig = g.denseEigenvalues()
	} else {
		eig = g.lanczosEigenvalues(k, seed)
	}
	return append([]float64(nil), eig[:min(k, len(eig))]...)
}

// denseEigenvalues returns every adjacency eigenvalue in descending
// order: Householder reduction to a symmetric tridiagonal matrix, then
// tql1. The matrix lives in one packed lower triangle (row i holds
// columns 0..i and starts at i(i+1)/2), so every inner loop reads and
// writes contiguous memory.
func (g *Graph) denseEigenvalues() []float64 {
	n := g.N
	a := make([]float64, n*(n+1)/2)
	for u := 0; u < n; u++ {
		for _, v := range g.adj[u] {
			if v < u {
				a[u*(u+1)/2+v] = 1
			}
		}
	}
	d := make([]float64, n)
	e := make([]float64, n) // e[i] couples rows i-1 and i
	p := make([]float64, n)
	for i := n - 1; i > 0; i-- {
		// Reflect row i's part left of the diagonal, u = a[i][0..i-1],
		// onto its last entry.
		u := a[i*(i+1)/2 : i*(i+1)/2+i]
		scale := 0.0
		for _, x := range u {
			scale += math.Abs(x)
		}
		if scale == 0 {
			continue // already reduced (an isolated node's row, say)
		}
		h := 0.0
		for k := range u {
			u[k] /= scale
			h += u[k] * u[k]
		}
		f := u[i-1]
		s := -math.Copysign(math.Sqrt(h), f)
		e[i] = scale * s
		h -= f * s
		u[i-1] = f - s
		// p = A u / h over the leading i×i block, row by row: row j's
		// entries left of the diagonal serve both p[j] and, by symmetry,
		// p[0..j-1].
		clear(p[:i])
		for j := 0; j < i; j++ {
			row := a[j*(j+1)/2 : j*(j+1)/2+j]
			uu, pp := u[:len(row)], p[:len(row)]
			uj, pj := u[j], 0.0
			for k, x := range row {
				pj += x * uu[k]
				pp[k] += x * uj
			}
			p[j] += pj + a[j*(j+1)/2+j]*uj
		}
		f = 0
		for j := 0; j < i; j++ {
			p[j] /= h
			f += p[j] * u[j]
		}
		// q = p - (uᵀp / 2h) u, then A -= u qᵀ + q uᵀ on the lower
		// triangle.
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			p[j] -= hh * u[j]
		}
		for j := 0; j < i; j++ {
			row := a[j*(j+1)/2 : j*(j+1)/2+j+1]
			uu, qq := u[:len(row)], p[:len(row)]
			uj, qj := u[j], p[j]
			for k := range row {
				row[k] -= uj*qq[k] + qj*uu[k]
			}
		}
	}
	for i := range d {
		d[i] = a[i*(i+1)/2+i]
	}
	return tridiagEigenvalues(d, e[1:])
}

// lanczosEigenvalues returns the Ritz values, in descending order, of a
// Lanczos iteration with full reorthogonalization: 8k+40 steps (at most
// n) from a random start vector drawn from seed.
func (g *Graph) lanczosEigenvalues(k int, seed int64) []float64 {
	n := g.N
	steps := min(8*k+40, n)
	r := rand.New(rand.NewSource(seed))
	// basis holds the Lanczos vectors, vector j at basis[j*n:(j+1)*n].
	basis := make([]float64, steps*n)
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps) // beta[j] couples v_j and v_{j+1}

	start := basis[:n]
	for i := range start {
		start[i] = r.NormFloat64()
	}
	normalize(start)
	w := make([]float64, n)
	for j := 0; j < steps; j++ {
		v := basis[j*n : (j+1)*n]
		g.matVec(v, w)
		a := dot(w, v)
		alpha = append(alpha, a)
		// w = w - a*v - beta_{j-1}*v_{j-1}
		for i := range w {
			w[i] -= a * v[i]
		}
		if j > 0 {
			b := beta[j-1]
			prev := basis[(j-1)*n : j*n]
			for i := range w {
				w[i] -= b * prev[i]
			}
		}
		// Full reorthogonalization for numerical robustness.
		for t := 0; t <= j; t++ {
			u := basis[t*n : (t+1)*n]
			d := dot(w, u)
			for i := range w {
				w[i] -= d * u[i]
			}
		}
		b := math.Sqrt(dot(w, w))
		if b < 1e-12 || j+1 == steps {
			break
		}
		beta = append(beta, b)
		next := basis[(j+1)*n : (j+2)*n]
		for i := range w {
			next[i] = w[i] / b
		}
	}
	return tridiagEigenvalues(alpha, beta[:len(alpha)-1])
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(v []float64) {
	n := math.Sqrt(dot(v, v))
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// tridiagEigenvalues computes all eigenvalues of a symmetric tridiagonal
// matrix (diagonal d, off-diagonal e) with the implicit QL algorithm
// (the classic tql1 routine), in descending order.
func tridiagEigenvalues(d, e []float64) []float64 {
	n := len(d)
	dd := append([]float64(nil), d...)
	ee := make([]float64, n)
	copy(ee, e)
	// An off-diagonal element splits the matrix when it is negligible
	// against its two diagonal neighbours or against norm, a bound on
	// every entry. Householder leaves chains of rounding-level entries
	// where rows are zero up to rounding, and between diagonal entries
	// as small the local test alone never splits them.
	norm := 0.0
	for i := range dd {
		norm = max(norm, math.Abs(dd[i])+math.Abs(ee[i]))
	}

	for l := 0; l < n; l++ {
		for iter := 0; iter < 50; iter++ {
			// Find a small off-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				s := max(norm, math.Abs(dd[m])+math.Abs(dd[m+1]))
				if math.Abs(ee[m]) <= 1e-14*s {
					break
				}
			}
			if m == l {
				break
			}
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					dd[i+1] -= p
					ee[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = (dd[i]-g)*s + 2*c*b
				p = s * r
				dd[i+1] = g + p
				g = c*r - b
			}
			// Only an underflow restarts the sweep. A full sweep can end
			// with r exactly 0 too, as it does on the zero diagonal of an
			// adjacency matrix, and must still update d[l] and e[l].
			if underflow {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dd)))
	return dd
}
