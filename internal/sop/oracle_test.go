package sop

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tt"
)

// The oracles below are the straightforward kernels Minimize, Kernels,
// Divide and Factor replaced: one cached table per cube for the
// minimizer, maps for literal counts and cube membership, and a fresh
// cover per quotient. The production code must answer exactly as they
// do, cube for cube and in the same order.

// minimizeOracle is Minimize over a map from each cube to its table.
func minimizeOracle(f, dc tt.TT) Cover {
	n := f.NumVars()
	on := f.AndNot(dc)
	off := f.Or(dc).Not()
	cover := Cover{NumVars: n, Cubes: tt.Isop(on, f.Or(dc))}
	cache := map[tt.Cube]tt.TT{}
	get := func(c tt.Cube) tt.TT {
		t, ok := cache[c]
		if !ok {
			t = c.TT(n)
			cache[c] = t
		}
		return t
	}
	expand := func(c Cover) Cover {
		out := Cover{NumVars: n}
		covered := tt.New(n)
		order := append([]tt.Cube(nil), c.Cubes...)
		slices.SortStableFunc(order, func(a, b tt.Cube) int { return a.NumLits() - b.NumLits() })
		for _, cube := range order {
			if get(cube).AndNot(covered).IsConst0() {
				continue
			}
			for v := 0; v < n; v++ {
				if !cube.HasVar(v) {
					continue
				}
				cand := cube
				cand.Mask &^= 1 << uint(v)
				cand.Val &^= 1 << uint(v)
				if get(cand).And(off).IsConst0() {
					cube = cand
				}
			}
			out.Cubes = append(out.Cubes, cube)
			covered = covered.Or(get(cube))
		}
		return out
	}
	irredundant := func(c Cover) Cover {
		keep := append([]tt.Cube(nil), c.Cubes...)
		slices.SortStableFunc(keep, func(a, b tt.Cube) int { return b.NumLits() - a.NumLits() })
		for i := 0; i < len(keep); {
			rest := tt.New(n)
			for j, cube := range keep {
				if j != i {
					rest = rest.Or(get(cube))
				}
			}
			if on.AndNot(rest).IsConst0() {
				keep = append(keep[:i], keep[i+1:]...)
			} else {
				i++
			}
		}
		return Cover{NumVars: n, Cubes: keep}
	}
	reduce := func(c Cover) Cover {
		out := Cover{NumVars: n}
		for i, cube := range c.Cubes {
			rest := tt.New(n)
			for j, other := range c.Cubes {
				if j != i {
					rest = rest.Or(get(other))
				}
			}
			essential := get(cube).And(on).AndNot(rest)
			if essential.IsConst0() {
				out.Cubes = append(out.Cubes, cube)
				continue
			}
			out.Cubes = append(out.Cubes, smallestCubeContainingOracle(essential))
		}
		return out
	}
	best := cover.Clone()
	bestCost := cover.cost()
	for round := 0; round < 8; round++ {
		cover = expand(cover)
		cover = irredundant(cover)
		if cost := cover.cost(); cost < bestCost {
			best, bestCost = cover.Clone(), cost
		} else {
			break
		}
		cover = reduce(cover)
	}
	return best
}

// smallestCubeContainingOracle cofactors set on every variable.
func smallestCubeContainingOracle(set tt.TT) tt.Cube {
	out := tt.Cube{}
	for v := 0; v < set.NumVars(); v++ {
		c0 := set.Cofactor(v, true).IsConst0()
		c1 := set.Cofactor(v, false).IsConst0()
		switch {
		case c0 && !c1:
			out = out.WithLit(v, false)
		case c1 && !c0:
			out = out.WithLit(v, true)
		}
	}
	return out
}

// litCountsOracle counts literals into a map.
func litCountsOracle(c Cover) map[litIndex]int {
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

// sortedLits returns the literals of counts in increasing order.
func sortedLits(counts map[litIndex]int) []litIndex {
	lits := make([]litIndex, 0, len(counts))
	for l := range counts {
		lits = append(lits, l)
	}
	slices.Sort(lits)
	return lits
}

// divideOracle is Divide with a cube set and a produced set per call.
func divideOracle(c, d Cover) (quot, rem Cover) {
	if len(d.Cubes) == 0 {
		return Cover{NumVars: c.NumVars}, c.Clone()
	}
	var candidates []tt.Cube
	for _, cube := range c.Cubes {
		if cubeContainsCube(cube, d.Cubes[0]) {
			candidates = append(candidates, cubeDiff(cube, d.Cubes[0]))
		}
	}
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

// fingerprintOracle hashes a cover's sorted cubes after its co-kernel.
func fingerprintOracle(co tt.Cube, cov Cover) uint64 {
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

// kernelsOracle enumerates kernels with a fresh cover per quotient and
// fingerprints both kernels on every comparison of the final sort.
func kernelsOracle(c Cover) []Kernel {
	var out []Kernel
	seen := make(map[uint64]bool)
	base, _ := c.MakeCubeFree()
	var rec func(cov Cover, co tt.Cube, minLit litIndex)
	rec = func(cov Cover, co tt.Cube, minLit litIndex) {
		key := fingerprintOracle(co, cov)
		if seen[key] {
			return
		}
		seen[key] = true
		if len(cov.Cubes) > 1 {
			out = append(out, Kernel{CoKernel: co, Cover: cov})
		}
		counts := litCountsOracle(cov)
		for _, l := range sortedLits(counts) {
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
	slices.SortFunc(out, func(a, b Kernel) int {
		ka := uint64(a.CoKernel.Mask)<<32 | uint64(a.CoKernel.Val)
		kb := uint64(b.CoKernel.Mask)<<32 | uint64(b.CoKernel.Val)
		if c := cmp.Compare(ka, kb); c != 0 {
			return c
		}
		if c := cmp.Compare(len(a.Cover.Cubes), len(b.Cover.Cubes)); c != 0 {
			return c
		}
		return cmp.Compare(fingerprintOracle(tt.Cube{}, a.Cover), fingerprintOracle(tt.Cube{}, b.Cover))
	})
	return out
}

// factorOracle is Factor over the oracle kernels, division and literal
// counts.
func factorOracle(c Cover) *Expr {
	if len(c.Cubes) == 0 {
		return &Expr{Kind: ExprConst0}
	}
	for _, cube := range c.Cubes {
		if cube.Mask == 0 {
			return &Expr{Kind: ExprConst1}
		}
	}
	if len(c.Cubes) == 1 {
		return cubeExpr(c.Cubes[0], c.NumVars)
	}
	free, cc := c.MakeCubeFree()
	var prefix *Expr = &Expr{Kind: ExprConst1}
	if cc.Mask != 0 {
		prefix = cubeExpr(cc, c.NumVars)
	}
	return mkAnd(prefix, factorCubeFreeOracle(free))
}

func factorCubeFreeOracle(c Cover) *Expr {
	if len(c.Cubes) == 1 {
		return cubeExpr(c.Cubes[0], c.NumVars)
	}
	if len(c.Cubes) == 0 {
		return &Expr{Kind: ExprConst0}
	}
	if d, ok := bestKernelDivisorOracle(c); ok {
		quot, rem := divideOracle(c, d)
		if len(quot.Cubes) > 0 && len(quot.Cubes)*len(d.Cubes) > len(quot.Cubes)+len(d.Cubes)-1 {
			return mkOr(mkAnd(factorOracle(d), factorOracle(quot)), factorOracle(rem))
		}
	}
	counts := litCountsOracle(c)
	best, bestCnt := litIndex(-1), 1
	for _, l := range sortedLits(counts) {
		if counts[l] > bestCnt {
			best, bestCnt = l, counts[l]
		}
	}
	if best >= 0 {
		quot, rem := c.DivideByLiteral(best.variable(), best.positive())
		if len(quot.Cubes) > 0 {
			return mkOr(mkAnd(lit(best.variable(), best.positive()), factorOracle(quot)), factorOracle(rem))
		}
	}
	args := make([]*Expr, len(c.Cubes))
	for i, cube := range c.Cubes {
		args[i] = cubeExpr(cube, c.NumVars)
	}
	return mkOr(args...)
}

func bestKernelDivisorOracle(c Cover) (Cover, bool) {
	kernels := kernelsOracle(c)
	if len(kernels) > 64 {
		kernels = kernels[:64]
	}
	bestGain := 0
	var best Cover
	found := false
	selfKey := fingerprintOracle(tt.Cube{}, c)
	for _, k := range kernels {
		if len(k.Cover.Cubes) == len(c.Cubes) && fingerprintOracle(tt.Cube{}, k.Cover) == selfKey {
			continue
		}
		quot, rem := divideOracle(c, k.Cover)
		if len(quot.Cubes) == 0 {
			continue
		}
		gain := c.NumLits() - (k.Cover.NumLits() + quot.NumLits() + rem.NumLits())
		if gain > bestGain {
			bestGain, best, found = gain, k.Cover, true
		}
	}
	return best, found
}

// checkAgainstOracles compares the minimized cover of f, its kernels,
// its quotients by each kernel and by each literal, and its factored
// form with the oracles'.
func checkAgainstOracles(t *testing.T, f tt.TT) {
	t.Helper()
	n := f.NumVars()
	cover := MinimizeTT(f)
	if want := minimizeOracle(f, tt.New(n)); !slices.Equal(cover.Cubes, want.Cubes) {
		t.Fatalf("%d vars %s: Minimize %v, oracle %v", n, f.Hex(), cover, want)
	}
	got, want := cover.litCounts(), litCountsOracle(cover)
	for l, cnt := range got {
		if cnt != want[litIndex(l)] {
			t.Fatalf("%d vars %s: literal %d counted %d, oracle %d", n, f.Hex(), l, cnt, want[litIndex(l)])
		}
	}
	kernels, wantKernels := cover.Kernels(), kernelsOracle(cover)
	if len(kernels) != len(wantKernels) {
		t.Fatalf("%d vars %s: %d kernels, oracle %d", n, f.Hex(), len(kernels), len(wantKernels))
	}
	for i, k := range kernels {
		w := wantKernels[i]
		if k.CoKernel != w.CoKernel || k.Cover.NumVars != w.Cover.NumVars || !slices.Equal(k.Cover.Cubes, w.Cover.Cubes) {
			t.Fatalf("%d vars %s: kernel %d is %v / %v, oracle %v / %v", n, f.Hex(), i, k.CoKernel, k.Cover, w.CoKernel, w.Cover)
		}
		q, r := cover.Divide(k.Cover)
		wq, wr := divideOracle(cover, k.Cover)
		if !slices.Equal(q.Cubes, wq.Cubes) || !slices.Equal(r.Cubes, wr.Cubes) {
			t.Fatalf("%d vars %s: %v / %v = %v rem %v, oracle %v rem %v", n, f.Hex(), cover, k.Cover, q, r, wq, wr)
		}
	}
	for l := litIndex(0); l.variable() < n; l++ {
		d := Cover{NumVars: n, Cubes: []tt.Cube{tt.Cube{}.WithLit(l.variable(), l.positive())}}
		q, r := cover.Divide(d)
		wq, wr := divideOracle(cover, d)
		if !slices.Equal(q.Cubes, wq.Cubes) || !slices.Equal(r.Cubes, wr.Cubes) {
			t.Fatalf("%d vars %s: %v / %v = %v rem %v, oracle %v rem %v", n, f.Hex(), cover, d, q, r, wq, wr)
		}
	}
	if got, want := Factor(cover).String(), factorOracle(cover).String(); got != want {
		t.Fatalf("%d vars %s: Factor %s, oracle %s", n, f.Hex(), got, want)
	}
}

// TestAlgebraMatchesOracles runs the comparison on random tables of 1 to
// 10 variables, on sparse and dense ones (where covers are long and
// share many literals), and on a cover with don't-cares.
func TestAlgebraMatchesOracles(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	for n := 1; n <= 10; n++ {
		trials := 12
		if n >= 9 {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			f := tt.Random(n, r)
			switch trial % 3 {
			case 1:
				f = f.And(tt.Random(n, r)).And(tt.Random(n, r))
			case 2:
				f = f.Or(tt.Random(n, r))
			}
			checkAgainstOracles(t, f)
		}
	}
	for n := 2; n <= 9; n++ {
		f, dc := tt.Random(n, r), tt.Random(n, r).And(tt.Random(n, r))
		if got, want := Minimize(f, dc), minimizeOracle(f, dc); !slices.Equal(got.Cubes, want.Cubes) {
			t.Fatalf("%d vars %s dc %s: Minimize %v, oracle %v", n, f.Hex(), dc.Hex(), got, want)
		}
	}
}

// TestBoundedKernelsMatchFull requires a search for the first limit
// kernels to return exactly the first limit of the full Kernels(), cube
// for cube, on random covers of 1 to 10 variables. One finder serves
// every search, as in a Factor call, so each search also starts from
// the arena, seen set and kernel slice the one before left.
func TestBoundedKernelsMatchFull(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	var kf kernelFinder
	many := 0
	for n := 1; n <= 10; n++ {
		for trial := 0; trial < 30; trial++ {
			f := tt.Random(n, r)
			switch trial % 3 {
			case 1:
				f = f.And(tt.Random(n, r)).And(tt.Random(n, r))
			case 2:
				f = f.Or(tt.Random(n, r))
			}
			cover := MinimizeTT(f)
			full := cover.Kernels()
			if len(full) > maxKernels {
				many++
			}
			for _, limit := range []int{1, 2, 5, maxKernels} {
				got := kf.search(cover, limit)
				want := full[:min(limit, len(full))]
				if len(got) != len(want) {
					t.Fatalf("%d vars %s limit %d: %d kernels, want %d", n, f.Hex(), limit, len(got), len(want))
				}
				for i, k := range got {
					w := want[i]
					if k.CoKernel != w.CoKernel || k.fp != w.fp || k.Cover.NumVars != w.Cover.NumVars || !slices.Equal(k.Cover.Cubes, w.Cover.Cubes) {
						t.Fatalf("%d vars %s limit %d: kernel %d is %v / %v, want %v / %v", n, f.Hex(), limit, i, k.CoKernel, k.Cover, w.CoKernel, w.Cover)
					}
				}
			}
		}
	}
	if many == 0 {
		t.Fatal("no cover had more kernels than the divisor search keeps")
	}
	t.Logf("%d of 300 covers had more than %d kernels", many, maxKernels)
}
