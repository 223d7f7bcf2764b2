// Package sop manipulates sum-of-products cube covers: two-level
// minimization in the style of espresso (expand / irredundant / reduce),
// algebraic division, kernel extraction, and multi-level factoring. It is
// the substrate behind the SOP-based synthesis recipes and the refactoring
// optimization.
package sop

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/tt"
)

// Cover is a set of cubes over a fixed number of variables, denoting the
// OR of its cubes.
type Cover struct {
	NumVars int
	Cubes   []tt.Cube
}

// FromTT computes an initial (ISOP) cover of f.
func FromTT(f tt.TT) Cover {
	return Cover{NumVars: f.NumVars(), Cubes: tt.IsopOf(f)}
}

// TT expands the cover into a truth table.
func (c Cover) TT() tt.TT { return tt.CoverTT(c.NumVars, c.Cubes) }

// NumCubes returns the number of product terms.
func (c Cover) NumCubes() int { return len(c.Cubes) }

// NumLits returns the total literal count, the usual two-level cost.
func (c Cover) NumLits() int {
	n := 0
	for _, cube := range c.Cubes {
		n += cube.NumLits()
	}
	return n
}

// Clone returns a deep copy.
func (c Cover) Clone() Cover {
	return Cover{NumVars: c.NumVars, Cubes: append([]tt.Cube(nil), c.Cubes...)}
}

func (c Cover) String() string {
	parts := make([]string, len(c.Cubes))
	for i, cube := range c.Cubes {
		parts[i] = cube.String()
	}
	return strings.Join(parts, " + ")
}

// cubeTT caches cube truth tables during minimization.
type cubeTTCache struct {
	nvars int
	m     map[tt.Cube]tt.TT
}

func newCubeTTCache(nvars int) *cubeTTCache {
	return &cubeTTCache{nvars: nvars, m: make(map[tt.Cube]tt.TT)}
}

func (cc *cubeTTCache) get(c tt.Cube) tt.TT {
	if t, ok := cc.m[c]; ok {
		return t
	}
	t := c.TT(cc.nvars)
	cc.m[c] = t
	return t
}

// Minimize runs an espresso-style expand / irredundant / reduce loop on
// the onset f with don't-care set dc (may be the zero-variable table
// tt.New(n) for none), returning a prime, irredundant cover. The loop
// stops when a full round fails to improve the literal count.
func Minimize(f, dc tt.TT) Cover {
	n := f.NumVars()
	on := f.AndNot(dc)
	off := f.Or(dc).Not()
	cover := Cover{NumVars: n, Cubes: tt.Isop(on, f.Or(dc))}
	cache := newCubeTTCache(n)

	best := cover.Clone()
	bestCost := cover.cost()
	for round := 0; round < 8; round++ {
		cover = cover.expand(off, cache)
		cover = cover.irredundant(on, cache)
		if cost := cover.cost(); cost < bestCost {
			best, bestCost = cover.Clone(), cost
		} else {
			break
		}
		cover = cover.reduce(on, cache)
	}
	return best
}

// MinimizeTT is Minimize with an empty don't-care set.
func MinimizeTT(f tt.TT) Cover { return Minimize(f, tt.New(f.NumVars())) }

// cost orders covers by cube count, then literal count.
func (c Cover) cost() int { return c.NumCubes()<<16 + c.NumLits() }

// expand lifts every cube to a prime implicant against the offset: each
// literal whose removal keeps the cube disjoint from off is dropped.
// Cubes that become covered by earlier expanded cubes are removed.
func (c Cover) expand(off tt.TT, cache *cubeTTCache) Cover {
	out := Cover{NumVars: c.NumVars}
	covered := tt.New(c.NumVars)
	// Expand larger cubes first: they are more likely to absorb others.
	order := make([]tt.Cube, len(c.Cubes))
	copy(order, c.Cubes)
	slices.SortStableFunc(order, func(a, b tt.Cube) int { return a.NumLits() - b.NumLits() })
	for _, cube := range order {
		// Skip cubes already covered by the expanded prefix.
		if cache.get(cube).AndNot(covered).IsConst0() {
			continue
		}
		for v := 0; v < c.NumVars; v++ {
			if !cube.HasVar(v) {
				continue
			}
			cand := cube
			cand.Mask &^= 1 << uint(v)
			cand.Val &^= 1 << uint(v)
			if cache.get(cand).And(off).IsConst0() {
				cube = cand
			}
		}
		out.Cubes = append(out.Cubes, cube)
		covered = covered.Or(cache.get(cube))
	}
	return out
}

// irredundant removes cubes whose onset minterms are covered by the rest.
func (c Cover) irredundant(on tt.TT, cache *cubeTTCache) Cover {
	keep := append([]tt.Cube(nil), c.Cubes...)
	// Try removing in increasing size order (small cubes first).
	slices.SortStableFunc(keep, func(a, b tt.Cube) int { return b.NumLits() - a.NumLits() })
	for i := 0; i < len(keep); {
		rest := tt.New(c.NumVars)
		for j, cube := range keep {
			if j != i {
				rest = rest.Or(cache.get(cube))
			}
		}
		if on.AndNot(rest).IsConst0() {
			keep = append(keep[:i], keep[i+1:]...)
		} else {
			i++
		}
	}
	return Cover{NumVars: c.NumVars, Cubes: keep}
}

// reduce shrinks each cube to the smallest cube covering the onset
// minterms only it covers, enabling different expansions next round.
func (c Cover) reduce(on tt.TT, cache *cubeTTCache) Cover {
	out := Cover{NumVars: c.NumVars}
	for i, cube := range c.Cubes {
		rest := tt.New(c.NumVars)
		for j, other := range c.Cubes {
			if j != i {
				rest = rest.Or(cache.get(other))
			}
		}
		essential := cache.get(cube).And(on).AndNot(rest)
		if essential.IsConst0() {
			// Fully overlapped; keep as-is (irredundant will handle it).
			out.Cubes = append(out.Cubes, cube)
			continue
		}
		out.Cubes = append(out.Cubes, smallestCubeContaining(essential, cube))
	}
	return out
}

// smallestCubeContaining returns the smallest cube containing set that is
// itself contained in the bounding cube bound (set must imply bound).
func smallestCubeContaining(set tt.TT, bound tt.Cube) tt.Cube {
	out := tt.Cube{}
	for v := 0; v < set.NumVars(); v++ {
		c0 := set.Cofactor(v, true).IsConst0()  // no minterm with v=1
		c1 := set.Cofactor(v, false).IsConst0() // no minterm with v=0
		switch {
		case c0 && !c1:
			out = out.WithLit(v, false)
		case c1 && !c0:
			out = out.WithLit(v, true)
		}
	}
	return out
}

// --- Algebraic structure: kernels, division, factoring -----------------

// litIndex encodes a literal as 2*var + (negative ? 1 : 0).
type litIndex int

func litOf(v int, positive bool) litIndex {
	l := litIndex(2 * v)
	if !positive {
		l++
	}
	return l
}

func (l litIndex) variable() int  { return int(l) / 2 }
func (l litIndex) positive() bool { return l%2 == 0 }

// cubeHasLit reports whether the cube contains the literal.
func cubeHasLit(c tt.Cube, l litIndex) bool {
	return c.HasVar(l.variable()) && c.Phase(l.variable()) == l.positive()
}

// cubeRemoveLit drops the literal from the cube.
func cubeRemoveLit(c tt.Cube, l litIndex) tt.Cube {
	v := uint(l.variable())
	c.Mask &^= 1 << v
	c.Val &^= 1 << v
	return c
}

// litCounts returns how many cubes contain each literal.
func (c Cover) litCounts() map[litIndex]int {
	counts := make(map[litIndex]int)
	for _, cube := range c.Cubes {
		for v := 0; v < c.NumVars; v++ {
			if cube.HasVar(v) {
				counts[litOf(v, cube.Phase(v))]++
			}
		}
	}
	return counts
}

// DivideByLiteral computes the algebraic quotient and remainder of the
// cover by a single literal.
func (c Cover) DivideByLiteral(v int, positive bool) (quot, rem Cover) {
	l := litOf(v, positive)
	quot = Cover{NumVars: c.NumVars}
	rem = Cover{NumVars: c.NumVars}
	for _, cube := range c.Cubes {
		if cubeHasLit(cube, l) {
			quot.Cubes = append(quot.Cubes, cubeRemoveLit(cube, l))
		} else {
			rem.Cubes = append(rem.Cubes, cube)
		}
	}
	return quot, rem
}

// cubeContains reports whether cube a contains (as a product) all
// literals of cube b.
func cubeContainsCube(a, b tt.Cube) bool {
	// every literal of b appears in a.
	if b.Mask&^a.Mask != 0 {
		return false
	}
	return (a.Val^b.Val)&b.Mask == 0
}

// cubeDiff removes from a all literals of b (assumes containment checked).
func cubeDiff(a, b tt.Cube) tt.Cube {
	a.Mask &^= b.Mask
	a.Val &^= b.Mask
	return a
}

// Divide computes the weak algebraic division c / d: the quotient is the
// largest cover q with q*d + r = c where every cube of q*d appears in c.
func (c Cover) Divide(d Cover) (quot, rem Cover) {
	if len(d.Cubes) == 0 {
		return Cover{NumVars: c.NumVars}, c.Clone()
	}
	// Quotient candidates from dividing by the first divisor cube.
	var candidates []tt.Cube
	for _, cube := range c.Cubes {
		if cubeContainsCube(cube, d.Cubes[0]) {
			candidates = append(candidates, cubeDiff(cube, d.Cubes[0]))
		}
	}
	// Keep candidates that work for every divisor cube.
	var quotCubes []tt.Cube
	cubeSet := make(map[tt.Cube]bool, len(c.Cubes))
	for _, cube := range c.Cubes {
		cubeSet[cube] = true
	}
	for _, q := range candidates {
		ok := true
		for _, dc := range d.Cubes {
			prod, valid := cubeProduct(q, dc)
			if !valid || !cubeSet[prod] {
				ok = false
				break
			}
		}
		if ok {
			quotCubes = append(quotCubes, q)
		}
	}
	quot = Cover{NumVars: c.NumVars, Cubes: quotCubes}
	// Remainder: cubes of c not produced by quot*d.
	produced := make(map[tt.Cube]bool)
	for _, q := range quotCubes {
		for _, dc := range d.Cubes {
			if prod, valid := cubeProduct(q, dc); valid {
				produced[prod] = true
			}
		}
	}
	rem = Cover{NumVars: c.NumVars}
	for _, cube := range c.Cubes {
		if !produced[cube] {
			rem.Cubes = append(rem.Cubes, cube)
		}
	}
	return quot, rem
}

// cubeProduct multiplies two cubes; invalid when they clash (x and !x).
func cubeProduct(a, b tt.Cube) (tt.Cube, bool) {
	shared := a.Mask & b.Mask
	if (a.Val^b.Val)&shared != 0 {
		return tt.Cube{}, false
	}
	return tt.Cube{Mask: a.Mask | b.Mask, Val: a.Val | b.Val}, true
}

// Kernel is a cube-free quotient of the cover by a cube (its co-kernel).
type Kernel struct {
	CoKernel tt.Cube
	Cover    Cover
}

// commonCube returns the largest cube dividing every cube of the cover:
// the literals present in all cubes with consistent polarity.
func (c Cover) commonCube() tt.Cube {
	if len(c.Cubes) == 0 {
		return tt.Cube{}
	}
	common := c.Cubes[0]
	for _, cube := range c.Cubes[1:] {
		mask := common.Mask & cube.Mask &^ (common.Val ^ cube.Val)
		common.Mask = mask
		common.Val &= mask
	}
	return common
}

// MakeCubeFree divides out the common cube.
func (c Cover) MakeCubeFree() (Cover, tt.Cube) {
	cc := c.commonCube()
	if cc.Mask == 0 {
		return c.Clone(), cc
	}
	out := Cover{NumVars: c.NumVars}
	for _, cube := range c.Cubes {
		out.Cubes = append(out.Cubes, cubeDiff(cube, cc))
	}
	return out, cc
}

// coverFingerprint hashes a cover (as a cube multiset, order-independent)
// together with a co-kernel cube. Used to deduplicate kernels cheaply:
// formatting covers as strings dominated whole-experiment CPU profiles.
func coverFingerprint(co tt.Cube, cov Cover) uint64 {
	cubes := make([]uint64, len(cov.Cubes))
	for i, c := range cov.Cubes {
		cubes[i] = uint64(c.Mask)<<32 | uint64(c.Val)
	}
	slices.Sort(cubes)
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(co.Mask)<<32 | uint64(co.Val))
	for _, c := range cubes {
		mix(c)
	}
	return h
}

// Kernels enumerates all kernels of the cover (including the cover itself
// when cube-free) using the classic recursive literal-cofactor procedure.
func (c Cover) Kernels() []Kernel {
	var out []Kernel
	seen := make(map[uint64]bool)
	base, _ := c.MakeCubeFree()
	var rec func(cov Cover, co tt.Cube, minLit litIndex)
	rec = func(cov Cover, co tt.Cube, minLit litIndex) {
		key := coverFingerprint(co, cov)
		if seen[key] {
			return
		}
		seen[key] = true
		if len(cov.Cubes) > 1 {
			out = append(out, Kernel{CoKernel: co, Cover: cov})
		}
		// Iterate literals in sorted order: the seen-fingerprint dedup
		// prunes by first visit, so map-order iteration would change
		// which co-kernels get expanded from run to run.
		counts := cov.litCounts()
		lits := make([]litIndex, 0, len(counts))
		for l := range counts {
			lits = append(lits, l)
		}
		slices.Sort(lits)
		for _, l := range lits {
			if counts[l] < 2 || l < minLit {
				continue
			}
			quot, _ := cov.DivideByLiteral(l.variable(), l.positive())
			free, cc := quot.MakeCubeFree()
			newCo, ok := cubeProduct(co, tt.Cube{}.WithLit(l.variable(), l.positive()))
			if !ok {
				continue
			}
			newCo, ok = cubeProduct(newCo, cc)
			if !ok {
				continue
			}
			rec(free, newCo, l+1)
		}
	}
	if len(base.Cubes) > 0 {
		rec(base, tt.Cube{}, 0)
	}
	// Deterministic order (cheap numeric ordering, no formatting).
	slices.SortFunc(out, func(a, b Kernel) int {
		ka := uint64(a.CoKernel.Mask)<<32 | uint64(a.CoKernel.Val)
		kb := uint64(b.CoKernel.Mask)<<32 | uint64(b.CoKernel.Val)
		if c := cmp.Compare(ka, kb); c != 0 {
			return c
		}
		if c := cmp.Compare(len(a.Cover.Cubes), len(b.Cover.Cubes)); c != 0 {
			return c
		}
		return cmp.Compare(coverFingerprint(tt.Cube{}, a.Cover), coverFingerprint(tt.Cube{}, b.Cover))
	})
	return out
}

// bestLiteral returns the most frequent literal, breaking ties toward the
// lowest index for determinism. Returns ok=false when no literal appears
// in two or more cubes.
func (c Cover) bestLiteral() (litIndex, bool) {
	counts := c.litCounts()
	best, bestCnt := litIndex(-1), 1
	keys := make([]litIndex, 0, len(counts))
	for l := range counts {
		keys = append(keys, l)
	}
	slices.Sort(keys)
	for _, l := range keys {
		if counts[l] > bestCnt {
			best, bestCnt = l, counts[l]
		}
	}
	return best, best >= 0
}
