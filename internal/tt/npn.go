package tt

import (
	"fmt"
	"sync"
)

// NPNTransform records how a function was mapped to its NPN-canonical
// representative: first inputs are complemented according to Flips, then
// inputs are permuted (original variable Perm[i] becomes canonical
// variable i), and finally the output is complemented if OutFlip is set.
type NPNTransform struct {
	Perm    []int
	Flips   uint32 // bit v set: original input v complemented before permuting
	OutFlip bool
}

// Apply maps t to its image under the transform (the canonical form when
// the transform came from NPNCanon of t).
func (x NPNTransform) Apply(t TT) TT {
	r := t
	for v := 0; v < t.NumVars(); v++ {
		if x.Flips>>uint(v)&1 == 1 {
			r = r.FlipVar(v)
		}
	}
	r = r.Permute(x.Perm)
	if x.OutFlip {
		r = r.Not()
	}
	return r
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used uint32)
	rec = func(cur []int, used uint32) {
		if len(cur) == n {
			cp := make([]int, n)
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for v := 0; v < n; v++ {
			if used>>uint(v)&1 == 0 {
				rec(append(cur, v), used|1<<uint(v))
			}
		}
	}
	rec(make([]int, 0, n), 0)
	return out
}

// perms holds the permutations of 0..n-1 for every n NPNCanon accepts.
// They are built on first use, not at package init, so programs that
// never canonicalize do not pay for them at start-up.
var perms struct {
	once  sync.Once
	table [7][][]int
}

func allPerms(n int) [][]int {
	perms.once.Do(func() {
		for k := range perms.table {
			perms.table[k] = permutations(k)
		}
	})
	return perms.table[n]
}

// NPNCanon computes the NPN-canonical representative of t by exhaustive
// enumeration over input negations, input permutations, and output
// negation, choosing the lexicographically smallest truth table. It is
// intended for small functions (<= 6 variables; the 4-variable case used
// by rewriting enumerates 768 transforms).
//
// The returned transform satisfies canon == transform.Apply(t).
func NPNCanon(t TT) (canon TT, transform NPNTransform) {
	n := t.NumVars()
	if n > 6 {
		panic(fmt.Sprintf("tt: NPNCanon limited to 6 variables, got %d", n))
	}
	best := TT{}
	var bestX NPNTransform
	have := false

	for flips := uint32(0); flips < 1<<uint(n); flips++ {
		flipped := t
		for v := 0; v < n; v++ {
			if flips>>uint(v)&1 == 1 {
				flipped = flipped.FlipVar(v)
			}
		}
		for _, perm := range allPerms(n) {
			p := flipped.Permute(perm)
			for out := 0; out < 2; out++ {
				cand := p
				if out == 1 {
					cand = p.Not()
				}
				if !have || lessTT(cand, best) {
					best = cand
					bestX = NPNTransform{Perm: append([]int(nil), perm...), Flips: flips, OutFlip: out == 1}
					have = true
				}
			}
		}
	}
	return best, bestX
}

// lessTT orders the one-word tables NPNCanon compares.
func lessTT(a, b TT) bool { return a.w[0] < b.w[0] }
