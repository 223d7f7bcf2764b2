// Package sop manipulates sum-of-products cube covers: two-level
// minimization in the style of espresso (expand / irredundant / reduce),
// algebraic division, kernel extraction, and multi-level factoring. It is
// the substrate behind the SOP-based synthesis recipes and the refactoring
// optimization.
package sop

import (
	"cmp"
	"math"
	"math/bits"
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

// Minimize runs an espresso-style expand / irredundant / reduce loop on
// the onset f with don't-care set dc (may be the constant-false table
// tt.New(n) for none), returning a prime, irredundant cover. The loop
// stops when a full round fails to improve the literal count.
//
// No table is built per cube: tt's cube primitives test cubes against
// the off-set and against the on-set's complement with the other cubes
// added, which each step builds in place.
func Minimize(f, dc tt.TT) Cover {
	n := f.NumVars()
	on := f.AndNot(dc)
	off := f.Or(dc).Not()
	notOn := on.Not()
	cover := Cover{NumVars: n, Cubes: tt.Isop(on, f.Or(dc))}

	best := cover.Clone()
	bestCost := cover.cost()
	for round := 0; round < 8; round++ {
		cover = cover.expand(off)
		cover = cover.irredundant(notOn)
		if cost := cover.cost(); cost < bestCost {
			best, bestCost = cover.Clone(), cost
		} else {
			break
		}
		cover = cover.reduce(notOn)
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
func (c Cover) expand(off tt.TT) Cover {
	out := Cover{NumVars: c.NumVars}
	covered := tt.New(c.NumVars)
	// Expand larger cubes first: they are more likely to absorb others.
	order := make([]tt.Cube, len(c.Cubes))
	copy(order, c.Cubes)
	slices.SortStableFunc(order, func(a, b tt.Cube) int { return a.NumLits() - b.NumLits() })
	for _, cube := range order {
		// Skip cubes already covered by the expanded prefix.
		if covered.CoversCube(cube) {
			continue
		}
		for v := 0; v < c.NumVars; v++ {
			if !cube.HasVar(v) {
				continue
			}
			cand := cube
			cand.Mask &^= 1 << uint(v)
			cand.Val &^= 1 << uint(v)
			if off.DisjointCube(cand) {
				cube = cand
			}
		}
		out.Cubes = append(out.Cubes, cube)
		covered.OrCube(cube)
	}
	return out
}

// irredundant removes cubes whose onset minterms are covered by the rest.
func (c Cover) irredundant(notOn tt.TT) Cover {
	keep := append([]tt.Cube(nil), c.Cubes...)
	// Try removing in increasing size order (small cubes first).
	slices.SortStableFunc(keep, func(a, b tt.Cube) int { return b.NumLits() - a.NumLits() })
	for i := 0; i < len(keep); {
		if others(notOn, keep, i).IsConst1() {
			keep = append(keep[:i], keep[i+1:]...)
		} else {
			i++
		}
	}
	return Cover{NumVars: c.NumVars, Cubes: keep}
}

// reduce shrinks each cube to the smallest cube covering the onset
// minterms only it covers, enabling different expansions next round.
func (c Cover) reduce(notOn tt.TT) Cover {
	out := Cover{NumVars: c.NumVars}
	for i, cube := range c.Cubes {
		rest := others(notOn, c.Cubes, i)
		if rest.CoversCube(cube) {
			// Fully overlapped; keep as-is (irredundant will handle it).
			out.Cubes = append(out.Cubes, cube)
			continue
		}
		out.Cubes = append(out.Cubes, smallestCubeContaining(cube, rest))
	}
	return out
}

// others returns notOn with every cube but cubes[i] added: the on-set
// minterms it lacks are those cubes[i] alone covers, if any.
func others(notOn tt.TT, cubes []tt.Cube, i int) tt.TT {
	rest := notOn.Clone()
	for j, cube := range cubes {
		if j != i {
			rest.OrCube(cube)
		}
	}
	return rest
}

// smallestCubeContaining returns the smallest cube containing the
// minterms of c that rest lacks; there must be at least one.
func smallestCubeContaining(c tt.Cube, rest tt.TT) tt.Cube {
	out := tt.Cube{}
	for v := 0; v < rest.NumVars(); v++ {
		if c.HasVar(v) {
			out = out.WithLit(v, c.Phase(v))
			continue
		}
		c0 := rest.CoversCube(c.WithLit(v, true))  // none with v=1
		c1 := rest.CoversCube(c.WithLit(v, false)) // none with v=0
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

// litCounts returns how many cubes contain each literal, indexed by
// litIndex over the 32 variables a cube can hold.
func (c Cover) litCounts() (counts [64]int) {
	vars := uint32(1)<<c.NumVars - 1
	for _, cube := range c.Cubes {
		for m := cube.Mask & vars; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			counts[litOf(v, cube.Phase(v))]++
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
	quot = Cover{NumVars: c.NumVars, Cubes: c.quotient(d.Cubes, nil)}
	rem = Cover{NumVars: c.NumVars}
	var buf [64]uint64
	prods := productKeys(quot.Cubes, d.Cubes, buf[:0])
	for _, cube := range c.Cubes {
		if _, ok := slices.BinarySearch(prods, cubeKey(cube)); !ok {
			rem.Cubes = append(rem.Cubes, cube)
		}
	}
	return quot, rem
}

// quotient appends to q the cubes of the quotient c / d, d non-empty:
// each cube of c containing d's first cube, less that cube's literals,
// whose product with every cube of d is a cube of c. Covers hold tens of
// cubes, so scanning them beats building a set.
func (c Cover) quotient(d, q []tt.Cube) []tt.Cube {
	for _, cube := range c.Cubes {
		if !cubeContainsCube(cube, d[0]) {
			continue
		}
		cand := cubeDiff(cube, d[0])
		ok := true
		for _, dc := range d {
			prod, valid := cubeProduct(cand, dc)
			if !valid || !slices.Contains(c.Cubes, prod) {
				ok = false
				break
			}
		}
		if ok {
			q = append(q, cand)
		}
	}
	return q
}

// productKeys appends to keys the sorted keys of the products of quot's
// cubes with d's, where quot is a quotient c / d: the cubes of c that the
// division accounts for, so every other cube of c is in the remainder.
// quotient admits only cubes whose products with d are valid.
func productKeys(quot, d []tt.Cube, keys []uint64) []uint64 {
	for _, q := range quot {
		for _, dc := range d {
			prod, _ := cubeProduct(q, dc)
			keys = append(keys, cubeKey(prod))
		}
	}
	slices.Sort(keys)
	return keys
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
	fp       uint64 // coverFingerprint(tt.Cube{}, Cover), the last sort key
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

// cubeKey orders cubes by mask, then value.
func cubeKey(c tt.Cube) uint64 { return uint64(c.Mask)<<32 | uint64(c.Val) }

// sortedKeys appends the keys of cubes to keys and sorts them: the cube
// multiset in an order independent of the cover's.
func sortedKeys(cubes []tt.Cube, keys []uint64) []uint64 {
	for _, c := range cubes {
		keys = append(keys, cubeKey(c))
	}
	slices.Sort(keys)
	return keys
}

// hashKeys hashes sorted cube keys together with a co-kernel cube.
func hashKeys(co tt.Cube, keys []uint64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(cubeKey(co))
	for _, k := range keys {
		mix(k)
	}
	return h
}

// coverFingerprint hashes a cover (as a cube multiset, order-independent)
// together with a co-kernel cube. Used to deduplicate kernels cheaply:
// formatting covers as strings dominated whole-experiment CPU profiles.
func coverFingerprint(co tt.Cube, cov Cover) uint64 {
	var buf [64]uint64
	return hashKeys(co, sortedKeys(cov.Cubes, buf[:0]))
}

// kernelFinder holds the kernel searches of one Factor call, which
// share its arena, seen set and kernel slice. Each quotient is built in a
// window of the arena and made cube-free there, and the kernels keep
// their windows until the next search starts over at the arena's front:
// a full arena is replaced, never grown.
type kernelFinder struct {
	nvars   int
	limit   int // kernels kept: the first limit in kernelCmp order
	arena   []tt.Cube
	keys    []uint64 // scratch for fingerprints and divisor products
	seen    map[uint64]bool
	kernels []Kernel // the first limit kernels found so far, sorted
}

// Kernels enumerates all kernels of the cover (including the cover itself
// when cube-free) using the classic recursive literal-cofactor procedure,
// sorted by co-kernel, size and fingerprint.
func (c Cover) Kernels() []Kernel {
	var kf kernelFinder
	return kf.search(c, math.MaxInt)
}

// kernelCmp orders kernels by co-kernel, size and fingerprint.
func kernelCmp(a, b Kernel) int {
	return cmp.Or(cmp.Compare(cubeKey(a.CoKernel), cubeKey(b.CoKernel)),
		cmp.Compare(len(a.Cover.Cubes), len(b.Cover.Cubes)), cmp.Compare(a.fp, b.fp))
}

// search returns the first limit kernels of c in Kernels' order. They
// live in the arena, so they are valid until the next search.
func (kf *kernelFinder) search(c Cover, limit int) []Kernel {
	if kf.seen == nil {
		// Fewer than 4% of the pipeline's Factor calls write more than
		// 16 cubes per cube of the cover into one search's arena.
		kf.arena = make([]tt.Cube, 0, 16*len(c.Cubes))
		kf.seen = make(map[uint64]bool)
	}
	kf.nvars, kf.limit = c.NumVars, limit
	kf.arena, kf.kernels = kf.arena[:0], kf.kernels[:0]
	clear(kf.seen)
	base := kf.window(len(c.Cubes))
	cc := c.commonCube()
	for i, cube := range c.Cubes {
		base[i] = cubeDiff(cube, cc)
	}
	if len(base) > 0 {
		kf.rec(base, tt.Cube{}, 0)
	}
	return kf.kernels
}

// beyond reports whether the search holds limit kernels whose
// co-kernels all precede co. A co-kernel only gains literals down the
// recursion, so its key only grows: a branch whose co-kernel is beyond
// yields no kernel among the first limit.
func (kf *kernelFinder) beyond(co tt.Cube) bool {
	n := len(kf.kernels)
	return n == kf.limit && cubeKey(co) > cubeKey(kf.kernels[n-1].CoKernel)
}

// keep inserts k in order if it is among the first limit kernels found
// so far, dropping the last of them when they are limit already.
func (kf *kernelFinder) keep(k Kernel) {
	i, _ := slices.BinarySearchFunc(kf.kernels, k, kernelCmp)
	if i == kf.limit {
		return
	}
	if len(kf.kernels) == kf.limit {
		kf.kernels = kf.kernels[:kf.limit-1]
	}
	kf.kernels = slices.Insert(kf.kernels, i, k)
}

// rec keeps the cube-free cover cov with co-kernel co unless it has been
// seen, then recurses into its quotients by every literal from minLit on
// that at least two of its cubes contain, but for those beyond the
// kernels kept.
func (kf *kernelFinder) rec(cov []tt.Cube, co tt.Cube, minLit litIndex) {
	kf.keys = sortedKeys(cov, kf.keys[:0])
	key := hashKeys(co, kf.keys)
	if kf.seen[key] {
		return
	}
	kf.seen[key] = true
	if len(cov) > 1 {
		kf.keep(Kernel{co, Cover{NumVars: kf.nvars, Cubes: cov}, hashKeys(tt.Cube{}, kf.keys)})
	}
	// Literals in index order: the seen-fingerprint dedup prunes by
	// first visit, so the order decides which co-kernels get expanded.
	counts := Cover{NumVars: kf.nvars, Cubes: cov}.litCounts()
	for l := minLit; int(l) < len(counts); l++ {
		if counts[l] < 2 {
			continue
		}
		newCo, ok := cubeProduct(co, tt.Cube{}.WithLit(l.variable(), l.positive()))
		if !ok || kf.beyond(newCo) {
			continue
		}
		quot := kf.window(counts[l])[:0]
		for _, cube := range cov {
			if cubeHasLit(cube, l) {
				quot = append(quot, cubeRemoveLit(cube, l))
			}
		}
		cc := Cover{Cubes: quot}.commonCube()
		for i := range quot {
			quot[i] = cubeDiff(quot[i], cc)
		}
		newCo, ok = cubeProduct(newCo, cc)
		if !ok || kf.beyond(newCo) {
			continue
		}
		kf.rec(quot, newCo, l+1)
	}
}

// window returns n fresh cubes at the end of the arena, replacing a full
// arena by one twice its size.
func (kf *kernelFinder) window(n int) []tt.Cube {
	if cap(kf.arena)-len(kf.arena) < n {
		kf.arena = make([]tt.Cube, 0, max(2*cap(kf.arena), n))
	}
	start := len(kf.arena)
	kf.arena = kf.arena[:start+n]
	return kf.arena[start : start+n : start+n]
}

// bestLiteral returns the most frequent literal, breaking ties toward the
// lowest index for determinism. Returns ok=false when no literal appears
// in two or more cubes.
func (c Cover) bestLiteral() (litIndex, bool) {
	best, bestCnt := litIndex(-1), 1
	for l, cnt := range c.litCounts() {
		if cnt > bestCnt {
			best, bestCnt = litIndex(l), cnt
		}
	}
	return best, best >= 0
}
