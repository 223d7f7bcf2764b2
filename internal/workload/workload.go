// Package workload generates the benchmark function suite: 100 function
// specifications mirroring the categories of the IWLS 2024 Programming
// Contest set the paper evaluates on — random functions, cryptographic
// components, sorting networks, arithmetic operations, and neural-network
// components — all as multi-output truth tables small enough for the full
// synthesis-metrics-optimization pipeline.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/tt"
)

// Spec is one benchmark function: a named multi-output truth table.
type Spec struct {
	Name     string
	Category string
	Outputs  []tt.TT
}

// NumInputs returns the input count of the spec.
func (s Spec) NumInputs() int { return s.Outputs[0].NumVars() }

// Suite generates the full 100-spec benchmark suite deterministically
// from the seed (randomized categories draw from it; structured ones are
// fixed).
func Suite(seed int64) []Spec {
	r := rand.New(rand.NewSource(seed))
	var specs []Spec
	add := func(category, name string, outputs ...tt.TT) {
		specs = append(specs, Spec{Name: name, Category: category, Outputs: outputs})
	}

	// --- random: 25 random functions of varying arity and output count.
	for i := 0; i < 25; i++ {
		n := 4 + i%5 // 4..8 inputs
		outs := 1 + i%3
		fs := make([]tt.TT, outs)
		for j := range fs {
			fs[j] = tt.Random(n, r)
		}
		add("random", fmt.Sprintf("rand%02d_n%d_o%d", i, n, outs), fs...)
	}

	// --- crypto: 20 specs.
	for bit := 0; bit < 4; bit++ {
		add("crypto", fmt.Sprintf("present_sbox_b%d", bit), PresentSboxBit(bit))
	}
	add("crypto", "present_sbox_all", PresentSboxBit(0), PresentSboxBit(1), PresentSboxBit(2), PresentSboxBit(3))
	for bit := 0; bit < 8; bit++ {
		add("crypto", fmt.Sprintf("aes_sbox_b%d", bit), AESSboxBit(bit))
	}
	for n := 5; n <= 9; n++ {
		add("crypto", fmt.Sprintf("parity%d", n), Parity(n))
	}
	add("crypto", "bent_ip6", InnerProductBent(6))
	add("crypto", "bent_ip8", InnerProductBent(8))

	// --- sorting: 15 specs (sorting networks on bits are threshold
	// functions: output i of an n-sorter is 1 iff at least n-i inputs
	// are 1).
	for _, n := range []int{5, 7, 9} {
		outs := make([]tt.TT, n)
		for i := 0; i < n; i++ {
			outs[i] = Threshold(n, n-i)
		}
		add("sorting", fmt.Sprintf("sorter%d", n), outs...)
	}
	for _, n := range []int{3, 5, 7, 9} {
		add("sorting", fmt.Sprintf("median%d", n), Threshold(n, n/2+1))
	}
	for _, n := range []int{6, 8} {
		for _, k := range []int{2, n - 2} {
			add("sorting", fmt.Sprintf("kth%d_of%d", k, n), Threshold(n, k))
		}
	}
	add("sorting", "max8", Threshold(8, 1), Threshold(8, 8))
	for _, n := range []int{6, 8, 10} {
		add("sorting", fmt.Sprintf("exact%d_half", n), ExactK(n, n/2))
	}

	// --- arithmetic: 20 specs.
	for _, w := range []int{2, 3, 4} {
		add("arithmetic", fmt.Sprintf("adder%d", w), Adder(w)...)
	}
	for _, w := range []int{2, 3} {
		add("arithmetic", fmt.Sprintf("mult%dx%d", w, w), Multiplier(w, w)...)
	}
	add("arithmetic", "mult2x3", Multiplier(2, 3)...)
	for _, w := range []int{3, 4, 5} {
		add("arithmetic", fmt.Sprintf("comp%d", w), Comparator(w))
	}
	for _, n := range []int{5, 7, 9} {
		add("arithmetic", fmt.Sprintf("popcount%d", n), Popcount(n)...)
	}
	for _, w := range []int{4, 6, 8} {
		add("arithmetic", fmt.Sprintf("inc%d", w), Incrementer(w)...)
	}
	add("arithmetic", "fulladder", FullAdder()...)
	add("arithmetic", "sqrbit4", SquareMiddleBits(4)...)
	for _, w := range []int{3, 4} {
		add("arithmetic", fmt.Sprintf("eq%d", w), Equality(w))
	}
	add("arithmetic", "popcount11", Popcount(11)...)

	// --- neural: 12 threshold (perceptron) gates with random integer
	// weights.
	for i := 0; i < 12; i++ {
		n := 5 + i%5 // 5..9 inputs
		w := make([]int, n)
		for j := range w {
			w[j] = r.Intn(7) - 3 // weights in [-3, 3]
		}
		total := 0
		for _, x := range w {
			if x > 0 {
				total += x
			}
		}
		th := 1
		if total > 1 {
			th = 1 + r.Intn(total)
		}
		add("neural", fmt.Sprintf("perceptron%02d_n%d", i, n), Perceptron(w, th))
	}

	// --- control: remaining specs to reach 100.
	for _, sel := range []int{2, 3} {
		add("control", fmt.Sprintf("mux%d", 1<<sel), Mux(sel))
	}
	for _, n := range []int{2, 3} {
		add("control", fmt.Sprintf("decoder%d", n), Decoder(n)...)
	}
	for _, n := range []int{5, 7} {
		add("control", fmt.Sprintf("prienc%d", n), PriorityEncoder(n)...)
	}
	add("control", "onehot6", OneHot(6))
	add("control", "gray4", GrayEncoder(4)...)

	if len(specs) != 100 {
		panic(fmt.Sprintf("workload: suite has %d specs, want 100", len(specs)))
	}
	return specs
}

// FilterByInputs keeps specs with at most maxInputs inputs, mirroring the
// paper's "87 of 100 synthesized due to scalability constraints".
func FilterByInputs(specs []Spec, maxInputs int) []Spec {
	var out []Spec
	for _, s := range specs {
		if s.NumInputs() <= maxInputs {
			out = append(out, s)
		}
	}
	return out
}

// --- Function constructors ----------------------------------------------

// Threshold returns the symmetric function "at least k of n inputs are 1".
func Threshold(n, k int) tt.TT {
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		if popcount(m) >= k {
			f.SetBit(m, true)
		}
	}
	return f
}

// ExactK returns the symmetric function "exactly k of n inputs are 1".
func ExactK(n, k int) tt.TT {
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		if popcount(m) == k {
			f.SetBit(m, true)
		}
	}
	return f
}

// Parity returns the n-input XOR.
func Parity(n int) tt.TT {
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		if popcount(m)%2 == 1 {
			f.SetBit(m, true)
		}
	}
	return f
}

// InnerProductBent returns the bent function x1*x2 + x3*x4 + ... (mod 2)
// over an even number of inputs.
func InnerProductBent(n int) tt.TT {
	if n%2 != 0 {
		panic("workload: bent function needs even arity")
	}
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		acc := 0
		for i := 0; i < n; i += 2 {
			acc ^= (m >> uint(i) & 1) & (m >> uint(i+1) & 1)
		}
		if acc == 1 {
			f.SetBit(m, true)
		}
	}
	return f
}

// Perceptron returns the threshold gate sum(w_i x_i) >= th.
func Perceptron(weights []int, th int) tt.TT {
	n := len(weights)
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		s := 0
		for i, w := range weights {
			if m>>uint(i)&1 == 1 {
				s += w
			}
		}
		if s >= th {
			f.SetBit(m, true)
		}
	}
	return f
}

// Adder returns the w+1 sum bits of a w-bit + w-bit adder (inputs: a then
// b, little-endian).
func Adder(w int) []tt.TT {
	n := 2 * w
	outs := make([]tt.TT, w+1)
	for i := range outs {
		outs[i] = tt.New(n)
	}
	for m := 0; m < 1<<n; m++ {
		a := m & (1<<w - 1)
		b := m >> uint(w)
		s := a + b
		for i := 0; i <= w; i++ {
			if s>>uint(i)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
	}
	return outs
}

// FullAdder returns the carry and sum of a 1-bit full adder — the
// paper's Figure 1 function.
func FullAdder() []tt.TT {
	maj := Threshold(3, 2)
	sum := Parity(3)
	return []tt.TT{maj, sum}
}

// Multiplier returns the wa+wb product bits of a wa-bit x wb-bit
// multiplier.
func Multiplier(wa, wb int) []tt.TT {
	n := wa + wb
	outs := make([]tt.TT, wa+wb)
	for i := range outs {
		outs[i] = tt.New(n)
	}
	for m := 0; m < 1<<n; m++ {
		a := m & (1<<wa - 1)
		b := m >> uint(wa)
		p := a * b
		for i := 0; i < wa+wb; i++ {
			if p>>uint(i)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
	}
	return outs
}

// Comparator returns a < b over two w-bit operands.
func Comparator(w int) tt.TT {
	n := 2 * w
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		a := m & (1<<w - 1)
		b := m >> uint(w)
		if a < b {
			f.SetBit(m, true)
		}
	}
	return f
}

// Equality returns a == b over two w-bit operands.
func Equality(w int) tt.TT {
	n := 2 * w
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		if m&(1<<w-1) == m>>uint(w) {
			f.SetBit(m, true)
		}
	}
	return f
}

// Popcount returns the bits of the population count of n inputs.
func Popcount(n int) []tt.TT {
	bitsNeeded := 1
	for 1<<bitsNeeded <= n {
		bitsNeeded++
	}
	outs := make([]tt.TT, bitsNeeded)
	for i := range outs {
		outs[i] = tt.New(n)
	}
	for m := 0; m < 1<<n; m++ {
		c := popcount(m)
		for i := 0; i < bitsNeeded; i++ {
			if c>>uint(i)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
	}
	return outs
}

// Incrementer returns the w bits of x+1 mod 2^w.
func Incrementer(w int) []tt.TT {
	outs := make([]tt.TT, w)
	for i := range outs {
		outs[i] = tt.New(w)
	}
	for m := 0; m < 1<<w; m++ {
		s := (m + 1) & (1<<w - 1)
		for i := 0; i < w; i++ {
			if s>>uint(i)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
	}
	return outs
}

// SquareMiddleBits returns the middle bits of x^2 for a w-bit input.
func SquareMiddleBits(w int) []tt.TT {
	outs := make([]tt.TT, w)
	for i := range outs {
		outs[i] = tt.New(w)
	}
	for m := 0; m < 1<<w; m++ {
		sq := m * m
		for i := 0; i < w; i++ {
			if sq>>uint(i+w/2)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
	}
	return outs
}

// Mux returns the 2^sel:1 multiplexer: sel select inputs followed by
// 2^sel data inputs.
func Mux(sel int) tt.TT {
	data := 1 << sel
	n := sel + data
	f := tt.New(n)
	for m := 0; m < 1<<n; m++ {
		s := m & (1<<sel - 1) // select lines are inputs 0..sel-1
		if m>>uint(sel+s)&1 == 1 {
			f.SetBit(m, true)
		}
	}
	return f
}

// Decoder returns the 2^n one-hot outputs of an n-input decoder.
func Decoder(n int) []tt.TT {
	outs := make([]tt.TT, 1<<n)
	for i := range outs {
		outs[i] = tt.New(n)
		outs[i].SetBit(i, true)
	}
	return outs
}

// PriorityEncoder returns the index bits of the highest set input plus a
// valid flag, for n inputs.
func PriorityEncoder(n int) []tt.TT {
	bitsNeeded := 1
	for 1<<bitsNeeded < n {
		bitsNeeded++
	}
	outs := make([]tt.TT, bitsNeeded+1)
	for i := range outs {
		outs[i] = tt.New(n)
	}
	for m := 1; m < 1<<n; m++ {
		hi := 0
		for i := 0; i < n; i++ {
			if m>>uint(i)&1 == 1 {
				hi = i
			}
		}
		for i := 0; i < bitsNeeded; i++ {
			if hi>>uint(i)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
		outs[bitsNeeded].SetBit(m, true) // valid
	}
	return outs
}

// OneHot returns the predicate "exactly one input is 1".
func OneHot(n int) tt.TT { return ExactK(n, 1) }

// GrayEncoder returns the w-bit binary-to-Gray converter.
func GrayEncoder(w int) []tt.TT {
	outs := make([]tt.TT, w)
	for i := range outs {
		outs[i] = tt.New(w)
	}
	for m := 0; m < 1<<w; m++ {
		gray := m ^ (m >> 1)
		for i := 0; i < w; i++ {
			if gray>>uint(i)&1 == 1 {
				outs[i].SetBit(m, true)
			}
		}
	}
	return outs
}

func popcount(m int) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}
