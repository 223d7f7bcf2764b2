// Package tt implements dense truth tables over up to 16 Boolean variables.
//
// A truth table stores one bit per input minterm, packed into 64-bit words
// in the conventional simulation order: bit m of the table is the function
// value on the assignment whose variable i takes bit i of m. Variable 0 is
// therefore the fastest-toggling input, exactly as in ABC and mockturtle.
//
// The package provides Boolean algebra, cofactoring, support analysis,
// irredundant sum-of-products extraction (Minato-Morreale ISOP), and NPN
// canonicalization, which together form the functional substrate for AIG
// synthesis and rewriting.
package tt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
)

// MaxVars is the largest supported number of variables.
const MaxVars = 16

// projections of the first six variables inside a single 64-bit word.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// TT is a truth table over a fixed number of variables. The variable
// count alone chooses its form: a table of at most 6 variables is one
// inline word, so making, copying and combining such tables allocates
// nothing; a larger table keeps its words in a heap slice. The zero value
// is the constant-false table over 0 variables.
//
// Operations never change their operands. Copies of a large table share
// its words, so mutate (SetBit, OrCube) only a table you created with
// New, Const, Var or Clone and have not copied since.
type TT struct {
	w     [1]uint64 // the table when it has at most 6 variables
	words []uint64  // a larger table's words; see smallShape otherwise
}

// smallShape gives a table of at most 6 variables its variable count:
// its words field is an empty slice of smallShape whose capacity is the
// count. TT so stays four machine words, small enough for the compiler
// to keep in registers; a separate count field made every table
// operation go through memory.
var smallShape [6]uint64

// WordCount returns the number of 64-bit words required for n variables.
func WordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// New returns the constant-false table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: variable count %d out of range [0,%d]", n, MaxVars))
	}
	if n <= 6 {
		return TT{words: smallShape[:0:n]}
	}
	return TT{words: make([]uint64, WordCount(n))}
}

// ws returns t's words: its inline word, or its heap slice.
func (t *TT) ws() []uint64 {
	if len(t.words) > 0 {
		return t.words
	}
	return t.w[:]
}

// Const returns the constant table (false or true) over n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		ws := t.ws()
		for i := range ws {
			ws[i] = ^uint64(0)
		}
		t.maskTop()
	}
	return t
}

// Var returns the projection table of variable i over n variables.
func Var(i, n int) TT {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tt: variable %d out of range for %d inputs", i, n))
	}
	t := New(n)
	ws := t.ws()
	if i < 6 {
		for w := range ws {
			ws[w] = varMasks[i]
		}
	} else {
		// Variable i toggles every 2^(i-6) words.
		period := 1 << (i - 6)
		for w := range ws {
			if w&period != 0 {
				ws[w] = ^uint64(0)
			}
		}
	}
	t.maskTop()
	return t
}

// FromWords builds a table over n variables from raw words (copied).
func FromWords(n int, words []uint64) TT {
	t := New(n)
	copy(t.ws(), words)
	t.maskTop()
	return t
}

// Random returns a uniformly random table over n variables drawn from r.
func Random(n int, r *rand.Rand) TT {
	t := New(n)
	ws := t.ws()
	for i := range ws {
		ws[i] = r.Uint64()
	}
	t.maskTop()
	return t
}

// maskTop clears the unused high bits of the one word of a table of
// fewer than 6 variables.
func (t *TT) maskTop() { t.w[0] &= topMask(t.NumVars()) }

// topMask returns the valid-bit mask for the (single-word) table.
func topMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// NumVars returns the number of variables of the table.
func (t TT) NumVars() int {
	if len(t.words) == 0 {
		return cap(t.words)
	}
	return 6 + bits.TrailingZeros(uint(len(t.words)))
}

// NumBits returns the number of minterm bits (2^NumVars).
func (t TT) NumBits() int { return 1 << t.NumVars() }

// NumWords returns the number of 64-bit words of the table.
func (t TT) NumWords() int { return WordCount(t.NumVars()) }

// Word returns word i of the table, 0 <= i < NumWords().
func (t TT) Word(i int) uint64 { return t.ws()[i] }

// wordTable returns the table over 6 variables whose one word is w.
func wordTable(w uint64) TT { return TT{w: [1]uint64{w}, words: smallShape[:0:6]} }

// Clone returns a copy of t that shares no words with it.
func (t TT) Clone() TT {
	if len(t.words) > 0 {
		w := make([]uint64, len(t.words))
		copy(w, t.words)
		t.words = w
	}
	return t
}

// Bit reports the function value on minterm m.
func (t TT) Bit(m int) bool {
	return t.ws()[m>>6]>>(uint(m)&63)&1 == 1
}

// SetBit sets the function value on minterm m. See TT for which tables
// may be mutated.
func (t *TT) SetBit(m int, v bool) {
	ws := t.ws()
	if v {
		ws[m>>6] |= 1 << (uint(m) & 63)
	} else {
		ws[m>>6] &^= 1 << (uint(m) & 63)
	}
}

// sameVars reports whether t and u have the same variable count: large
// tables of as many words, or small ones of equal shape (see smallShape).
func (t TT) sameVars(u TT) bool {
	return len(t.words) == len(u.words) && (len(t.words) > 0 || cap(t.words) == cap(u.words))
}

// check panics unless t and u have the same variable count. It is cheap
// enough to inline into every operation.
func (t TT) check(u TT) {
	if !t.sameVars(u) {
		panic("tt: mixing tables over different variable counts")
	}
}

// And returns t AND u.
func (t TT) And(u TT) TT {
	t.check(u)
	if len(t.words) == 0 {
		return TT{w: [1]uint64{t.w[0] & u.w[0]}, words: t.words}
	}
	r := New(t.NumVars())
	for i := range r.words {
		r.words[i] = t.words[i] & u.words[i]
	}
	return r
}

// Or returns t OR u.
func (t TT) Or(u TT) TT {
	t.check(u)
	if len(t.words) == 0 {
		return TT{w: [1]uint64{t.w[0] | u.w[0]}, words: t.words}
	}
	r := New(t.NumVars())
	for i := range r.words {
		r.words[i] = t.words[i] | u.words[i]
	}
	return r
}

// Xor returns t XOR u.
func (t TT) Xor(u TT) TT {
	t.check(u)
	if len(t.words) == 0 {
		return TT{w: [1]uint64{t.w[0] ^ u.w[0]}, words: t.words}
	}
	r := New(t.NumVars())
	for i := range r.words {
		r.words[i] = t.words[i] ^ u.words[i]
	}
	return r
}

// AndNot returns t AND NOT u.
func (t TT) AndNot(u TT) TT {
	t.check(u)
	if len(t.words) == 0 {
		return TT{w: [1]uint64{t.w[0] &^ u.w[0]}, words: t.words}
	}
	r := New(t.NumVars())
	for i := range r.words {
		r.words[i] = t.words[i] &^ u.words[i]
	}
	return r
}

// AndCompl returns t AND u with t complemented when ct holds and u when
// cu holds, masked as Not masks: the AND of two literals' tables without
// building a table for either complement.
func (t TT) AndCompl(ct bool, u TT, cu bool) TT {
	t.check(u)
	mt, mu := complMask(ct), complMask(cu)
	if len(t.words) == 0 {
		return TT{w: [1]uint64{(t.w[0] ^ mt) & (u.w[0] ^ mu) & topMask(t.NumVars())}, words: t.words}
	}
	r := New(t.NumVars())
	for i := range r.words {
		r.words[i] = (t.words[i] ^ mt) & (u.words[i] ^ mu)
	}
	return r
}

// complMask returns the word that XOR-complements a word when c holds.
func complMask(c bool) uint64 {
	if c {
		return ^uint64(0)
	}
	return 0
}

// Not returns the complement of t.
func (t TT) Not() TT {
	if len(t.words) == 0 {
		return TT{w: [1]uint64{^t.w[0] & topMask(t.NumVars())}, words: t.words}
	}
	r := New(t.NumVars())
	for i := range r.words {
		r.words[i] = ^t.words[i]
	}
	return r
}

// Equal reports whether t and u denote the same function.
func (t TT) Equal(u TT) bool {
	return t.w == u.w && t.sameVars(u) && slices.Equal(t.words, u.words)
}

// IsConst0 reports whether t is the constant-false function.
func (t TT) IsConst0() bool {
	if t.w[0] != 0 {
		return false
	}
	for _, w := range t.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether t is the constant-true function.
func (t TT) IsConst1() bool {
	if len(t.words) == 0 {
		return t.w[0] == topMask(t.NumVars())
	}
	for _, w := range t.words {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// CountOnes returns the number of satisfying minterms.
func (t TT) CountOnes() int {
	n := bits.OnesCount64(t.w[0])
	for _, w := range t.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Cofactor returns the cofactor of t with variable v fixed to value val.
// The result remains a table over the same variable count; variable v
// becomes irrelevant in it.
func (t TT) Cofactor(v int, val bool) TT {
	if v < 0 || v >= t.NumVars() {
		panic(fmt.Sprintf("tt: cofactor variable %d out of range", v))
	}
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << v
		mask := varMasks[v]
		ws := r.ws()
		for i, w := range ws {
			if val {
				hi := w & mask
				ws[i] = hi | hi>>shift
			} else {
				lo := w &^ mask
				ws[i] = lo | lo<<shift
			}
		}
	} else {
		period := 1 << (v - 6)
		for base := 0; base < len(r.words); base += 2 * period {
			for k := 0; k < period; k++ {
				if val {
					r.words[base+k] = r.words[base+period+k]
				} else {
					r.words[base+period+k] = r.words[base+k]
				}
			}
		}
	}
	return r
}

// HasVar reports whether the function depends on variable v: whether its
// two cofactors on v differ. It compares the two halves in place.
func (t TT) HasVar(v int) bool {
	if v < 0 || v >= t.NumVars() {
		panic(fmt.Sprintf("tt: variable %d out of range for %d inputs", v, t.NumVars()))
	}
	if v < 6 {
		// Bit m+2^v against bit m, for every m whose bit v is clear.
		shift, lo := uint(1)<<v, ^varMasks[v]
		for _, w := range t.ws() {
			if (w>>shift^w)&lo != 0 {
				return true
			}
		}
		return false
	}
	period := 1 << (v - 6)
	for base := 0; base < len(t.words); base += 2 * period {
		if !slices.Equal(t.words[base:base+period], t.words[base+period:base+2*period]) {
			return true
		}
	}
	return false
}

// SupportMask returns the support as a bit mask: bit v is set when the
// function depends on variable v.
func (t TT) SupportMask() uint32 {
	var m uint32
	for v := 0; v < t.NumVars(); v++ {
		if t.HasVar(v) {
			m |= 1 << v
		}
	}
	return m
}

// Support returns the indices of variables the function depends on.
func (t TT) Support() []int {
	var s []int
	for m := t.SupportMask(); m != 0; m &= m - 1 {
		s = append(s, bits.TrailingZeros32(m))
	}
	return s
}

// SupportSize returns the number of variables the function depends on.
func (t TT) SupportSize() int { return bits.OnesCount32(t.SupportMask()) }

// FlipVar returns the table with variable v complemented.
func (t TT) FlipVar(v int) TT {
	if v < 0 || v >= t.NumVars() {
		panic(fmt.Sprintf("tt: flip variable %d out of range", v))
	}
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << v
		mask := varMasks[v]
		ws := r.ws()
		for i, w := range ws {
			ws[i] = (w&mask)>>shift | (w&^mask)<<shift
		}
	} else {
		period := 1 << (v - 6)
		for base := 0; base < len(r.words); base += 2 * period {
			for k := 0; k < period; k++ {
				r.words[base+k], r.words[base+period+k] = r.words[base+period+k], r.words[base+k]
			}
		}
	}
	return r
}

// Permute returns the table with original variable perm[i] renamed to
// variable i: the result depends on its input i exactly as t depends on
// input perm[i]. perm must be a permutation of 0..n-1.
func (t TT) Permute(perm []int) TT {
	if len(perm) != t.NumVars() {
		panic("tt: permutation length mismatch")
	}
	r := New(t.NumVars())
	for m := 0; m < t.NumBits(); m++ {
		// Map minterm m of the result to the corresponding minterm of t:
		// bit perm[i] of the source equals bit i of m.
		src := 0
		for i, p := range perm {
			if m>>uint(i)&1 == 1 {
				src |= 1 << uint(p)
			}
		}
		if t.Bit(src) {
			r.SetBit(m, true)
		}
	}
	return r
}

// Expand returns an equivalent table over m >= t.NumVars() variables; the new
// variables are don't-cares.
func (t TT) Expand(m int) TT {
	if m < t.NumVars() {
		panic("tt: cannot shrink variable count with Expand")
	}
	if m == t.NumVars() {
		return t.Clone()
	}
	r := New(m)
	tw, rw := t.ws(), r.ws()
	if t.NumVars() >= 6 {
		for i := range rw {
			rw[i] = tw[i%len(tw)]
		}
		return r
	}
	// Replicate the sub-word pattern across the word, then across words.
	w := t.w[0]
	span := 1 << t.NumVars()
	for span < 64 {
		w |= w << uint(span)
		span <<= 1
	}
	for i := range rw {
		rw[i] = w
	}
	r.maskTop()
	return r
}

// Shrink returns the same function expressed over exactly m variables,
// which must include the full support of t (variables >= m must be
// don't-cares).
func (t TT) Shrink(m int) TT {
	if m > t.NumVars() {
		panic("tt: Shrink target larger than table")
	}
	for v := m; v < t.NumVars(); v++ {
		if t.HasVar(v) {
			panic(fmt.Sprintf("tt: Shrink would drop live variable %d", v))
		}
	}
	r := New(m)
	for i := 0; i < 1<<m; i++ {
		r.SetBit(i, t.Bit(i))
	}
	return r
}

// String renders the table as a binary string, minterm 2^n-1 first
// (the conventional hex/binary truth-table order).
func (t TT) String() string {
	var b strings.Builder
	for m := t.NumBits() - 1; m >= 0; m-- {
		if t.Bit(m) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Hex renders the table as a hexadecimal string, most significant nibble
// first. Tables with fewer than two variables are padded to one nibble.
func (t TT) Hex() string {
	nibbles := t.NumBits() / 4
	if nibbles == 0 {
		nibbles = 1
	}
	var b strings.Builder
	for i := nibbles - 1; i >= 0; i-- {
		nib := t.Word(i/16) >> (uint(i%16) * 4) & 0xF
		b.WriteByte("0123456789abcdef"[nib])
	}
	return b.String()
}

// ParseHex parses a hexadecimal truth-table string for n variables as
// produced by Hex.
func ParseHex(n int, s string) (TT, error) {
	t := New(n)
	ws := t.ws()
	nibbles := t.NumBits() / 4
	if nibbles == 0 {
		nibbles = 1
	}
	if len(s) != nibbles {
		return TT{}, fmt.Errorf("tt: hex string %q has %d nibbles, want %d for %d vars", s, len(s), nibbles, n)
	}
	for i := 0; i < nibbles; i++ {
		c := s[nibbles-1-i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return TT{}, fmt.Errorf("tt: invalid hex digit %q", c)
		}
		ws[i/16] |= v << (uint(i%16) * 4)
	}
	t.maskTop()
	return t, nil
}
