package tt

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Cube is a product term over up to MaxVars variables. Bit v of Mask marks
// variable v as present in the cube; the corresponding bit of Val gives its
// required polarity (1 = positive literal). An empty cube (Mask == 0) is
// the tautology.
type Cube struct {
	Mask uint32
	Val  uint32
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int { return bits.OnesCount32(c.Mask) }

// HasVar reports whether variable v appears in the cube.
func (c Cube) HasVar(v int) bool { return c.Mask>>uint(v)&1 == 1 }

// Phase reports the polarity of variable v (true = positive literal);
// meaningful only when HasVar(v).
func (c Cube) Phase(v int) bool { return c.Val>>uint(v)&1 == 1 }

// WithLit returns the cube extended with a literal on variable v.
func (c Cube) WithLit(v int, positive bool) Cube {
	c.Mask |= 1 << uint(v)
	if positive {
		c.Val |= 1 << uint(v)
	} else {
		c.Val &^= 1 << uint(v)
	}
	return c
}

// TT expands the cube into a truth table over n variables.
func (c Cube) TT(n int) TT {
	t := Const(n, true)
	for v := 0; v < n; v++ {
		if !c.HasVar(v) {
			continue
		}
		x := Var(v, n)
		if !c.Phase(v) {
			x = x.Not()
		}
		t = t.And(x)
	}
	return t
}

// span returns what the cube selects in a table over n variables: in,
// its minterms within one word (its literals on variables 0-5), and the
// words it meets, those whose index i has i&mask == val (its literals on
// variables 6 and up). Literals on variables n and up are ignored, as
// TT ignores them.
func (c Cube) span(n int) (in uint64, mask, val int) {
	lits := c.Mask & (1<<n - 1)
	in = topMask(n)
	for m := lits & 63; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		if c.Val>>v&1 == 1 {
			in &= varMasks[v]
		} else {
			in &^= varMasks[v]
		}
	}
	mask = int(lits >> 6)
	return in, mask, int(c.Val>>6) & mask
}

// nextWord returns the word index after i whose bits under mask equal
// val: it counts through the free bits alone.
func nextWord(i, mask, val int) int { return ((i|mask)+1)&^mask | val }

// DisjointCube reports whether no minterm of cube c is in t.
func (t TT) DisjointCube(c Cube) bool {
	in, mask, val := c.span(t.NumVars())
	ws := t.ws()
	for i := val; i < len(ws); i = nextWord(i, mask, val) {
		if ws[i]&in != 0 {
			return false
		}
	}
	return true
}

// CoversCube reports whether every minterm of cube c is in t.
func (t TT) CoversCube(c Cube) bool {
	in, mask, val := c.span(t.NumVars())
	ws := t.ws()
	for i := val; i < len(ws); i = nextWord(i, mask, val) {
		if ws[i]&in != in {
			return false
		}
	}
	return true
}

// OrCube adds the minterms of cube c to t. See TT for which tables may be
// mutated.
func (t *TT) OrCube(c Cube) {
	in, mask, val := c.span(t.NumVars())
	ws := t.ws()
	for i := val; i < len(ws); i = nextWord(i, mask, val) {
		ws[i] |= in
	}
}

// String renders the cube in the conventional espresso input-plane form:
// one character per variable (variable 0 first), '1' positive, '0'
// negative, '-' absent.
func (c Cube) String() string {
	var b strings.Builder
	for v := 0; v < MaxVars; v++ {
		if c.Mask>>uint(v) == 0 {
			break
		}
		switch {
		case !c.HasVar(v):
			b.WriteByte('-')
		case c.Phase(v):
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// ParseCube parses an espresso-style cube string over n variables.
func ParseCube(n int, s string) (Cube, error) {
	var c Cube
	if len(s) > n {
		return c, fmt.Errorf("tt: cube %q longer than %d variables", s, n)
	}
	for i, r := range s {
		switch r {
		case '1':
			c = c.WithLit(i, true)
		case '0':
			c = c.WithLit(i, false)
		case '-':
		default:
			return c, fmt.Errorf("tt: invalid cube character %q", r)
		}
	}
	return c, nil
}

// CoverTT expands a cube cover (interpreted as an OR of cubes) into a
// truth table over n variables.
func CoverTT(n int, cover []Cube) TT {
	t := New(n)
	for _, c := range cover {
		t = t.Or(c.TT(n))
	}
	return t
}

// Isop computes an irredundant sum-of-products cover of any function f
// with on-set lower bound L and upper bound U (L implies U) using the
// Minato-Morreale procedure. The returned cover satisfies
// L <= cover <= U. Passing L == U yields an ISOP of the exact function.
//
// The recursion appends to one cube slice. Above 6 variables it splits
// the tables' words in halves and keeps every table it builds on one
// word stack; once the variables left fit a word, it works on one-word
// tables, which allocate nothing.
func Isop(L, U TT) []Cube {
	L.check(U)
	if !L.AndNot(U).IsConst0() {
		panic("tt: Isop requires L <= U")
	}
	n := L.NumVars()
	if n <= 6 {
		cover, _ := isopWord(L.Expand(6), U.Expand(6), n, nil)
		return cover
	}
	// f takes the tables' length, and each level of h-word halves 4h
	// words of the rest.
	stack := make([]uint64, 5*len(L.words))
	return isopWords(L.words, U.words, stack[:len(L.words)], stack[len(L.words):], n, nil)
}

// IsopOf computes an irredundant SOP cover of f exactly.
func IsopOf(f TT) []Cube { return Isop(f, f) }

// isopWords is the recursion on tables of len(L) = 2^(nv-6) words, nv >
// 6, for which the variables from nv up are constant. It appends the
// cover of [L, U] to cover and writes the function it realizes to f. The
// tables it builds take 4h words of free, where h is its halves' length,
// and its children the rest.
func isopWords(L, U, f, free []uint64, nv int, cover []Cube) []Cube {
	if slices.Max(L) == 0 {
		clear(f)
		return cover
	}
	if slices.Min(U) == ^uint64(0) {
		for i := range f {
			f[i] = ^uint64(0)
		}
		return append(cover, Cube{})
	}
	// Find the topmost variable on which L or U actually depends.
	v := nv - 1
	for v >= 6 && !(TT{words: L}).HasVar(v) && !(TT{words: U}).HasVar(v) {
		v--
	}
	if v < 6 {
		// Every word is the same: recurse on the first.
		cover, w := isopWord(wordTable(L[0]), wordTable(U[0]), 6, cover)
		for i := range f {
			f[i] = w.w[0]
		}
		return cover
	}
	h := 1 << (v - 6)
	L0, L1, U0, U1 := L[:h], L[h:2*h], U[:h], U[h:2*h]
	t, f0, f1, u, rest := free[:h], free[h:2*h], free[2*h:3*h], free[3*h:4*h], free[4*h:]
	// Cubes that must contain the negative literal of v, then the
	// positive one.
	start := len(cover)
	for i := range t {
		t[i] = L0[i] &^ U1[i]
	}
	cover = isopWords(t, U0, f0, rest, v, cover)
	mid := len(cover)
	for i := range t {
		t[i] = L1[i] &^ U0[i]
	}
	cover = isopWords(t, U1, f1, rest, v, cover)
	for i := start; i < len(cover); i++ {
		cover[i] = cover[i].WithLit(v, i >= mid)
	}
	// Remainder handled without a literal on v; it realizes f[:h].
	for i := range t {
		t[i] = L0[i]&^f0[i] | L1[i]&^f1[i]
		u[i] = U0[i] & U1[i]
	}
	cover = isopWords(t, u, f[:h], rest, v, cover)
	for i := range h {
		f[h+i] = f[i] | f1[i]
		f[i] |= f0[i]
	}
	for i := 2 * h; i < len(f); i += 2 * h {
		copy(f[i:], f[:2*h])
	}
	return cover
}

// isopWord is the recursion on tables over 6 variables, for which the
// variables from nv up are constant: it appends the cover of [L, U] to
// cover and returns the function it realizes.
func isopWord(L, U TT, nv int, cover []Cube) ([]Cube, TT) {
	if L.IsConst0() {
		return cover, L
	}
	if U.IsConst1() {
		return append(cover, Cube{}), U
	}
	v := nv - 1
	for v >= 0 && !L.HasVar(v) && !U.HasVar(v) {
		v--
	}
	if v < 0 {
		// L and U are constants; L != 0 and U != 1 is impossible here
		// because L <= U, so L == 0 handled above means U == 0 too.
		panic("tt: isop internal: non-constant expected")
	}
	L0, L1 := L.Cofactor(v, false), L.Cofactor(v, true)
	U0, U1 := U.Cofactor(v, false), U.Cofactor(v, true)
	start := len(cover)
	cover, f0 := isopWord(L0.AndNot(U1), U0, v, cover)
	mid := len(cover)
	cover, f1 := isopWord(L1.AndNot(U0), U1, v, cover)
	for i := start; i < len(cover); i++ {
		cover[i] = cover[i].WithLit(v, i >= mid)
	}
	cover, fs := isopWord(L0.AndNot(f0).Or(L1.AndNot(f1)), U0.And(U1), v, cover)
	x := Var(v, 6)
	return cover, fs.Or(x.Not().And(f0)).Or(x.And(f1))
}
