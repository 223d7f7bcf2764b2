package workload

import (
	"testing"

	"repro/internal/tt"
)

func TestSuiteShape(t *testing.T) {
	specs := Suite(1)
	if len(specs) != 100 {
		t.Fatalf("suite has %d specs", len(specs))
	}
	names := make(map[string]bool)
	counts := make(map[string]int)
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
		counts[s.Category]++
		if len(s.Outputs) == 0 {
			t.Errorf("%s: no outputs", s.Name)
		}
		n := s.NumInputs()
		if n < 2 || n > 12 {
			t.Errorf("%s: %d inputs out of range", s.Name, n)
		}
		for _, o := range s.Outputs {
			if o.NumVars() != n {
				t.Errorf("%s: inconsistent output arities", s.Name)
			}
		}
	}
	for _, c := range []string{"random", "crypto", "sorting", "arithmetic", "neural", "control"} {
		if counts[c] == 0 {
			t.Errorf("category %s empty", c)
		}
	}
}

func TestSuiteDeterminism(t *testing.T) {
	a, b := Suite(7), Suite(7)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("suite order not deterministic")
		}
		for j := range a[i].Outputs {
			if !a[i].Outputs[j].Equal(b[i].Outputs[j]) {
				t.Fatalf("%s output %d differs across runs", a[i].Name, j)
			}
		}
	}
	c := Suite(8)
	diff := false
	for i := range a {
		for j := range a[i].Outputs {
			if !a[i].Outputs[j].Equal(c[i].Outputs[j]) {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical suites")
	}
}

func TestFilterByInputs(t *testing.T) {
	specs := Suite(1)
	small := FilterByInputs(specs, 6)
	if len(small) == 0 || len(small) >= len(specs) {
		t.Errorf("filter kept %d of %d", len(small), len(specs))
	}
	for _, s := range small {
		if s.NumInputs() > 6 {
			t.Errorf("%s slipped through filter", s.Name)
		}
	}
}

func TestThresholdAndExactK(t *testing.T) {
	th := Threshold(4, 2)
	for m := 0; m < 16; m++ {
		want := popcount(m) >= 2
		if th.Bit(m) != want {
			t.Fatalf("Threshold(4,2) wrong at %d", m)
		}
	}
	ex := ExactK(4, 2)
	for m := 0; m < 16; m++ {
		if ex.Bit(m) != (popcount(m) == 2) {
			t.Fatalf("ExactK wrong at %d", m)
		}
	}
	if !Threshold(3, 2).Equal(FullAdder()[0]) {
		t.Error("full adder carry is not maj3")
	}
}

func TestParityIsXor(t *testing.T) {
	p := Parity(5)
	want := tt.Var(0, 5)
	for v := 1; v < 5; v++ {
		want = want.Xor(tt.Var(v, 5))
	}
	if !p.Equal(want) {
		t.Error("Parity != XOR chain")
	}
}

func TestAdder(t *testing.T) {
	outs := Adder(3)
	if len(outs) != 4 {
		t.Fatalf("adder3 has %d outputs", len(outs))
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			m := a | b<<3
			s := a + b
			for i := 0; i < 4; i++ {
				if outs[i].Bit(m) != (s>>uint(i)&1 == 1) {
					t.Fatalf("adder3 bit %d wrong at a=%d b=%d", i, a, b)
				}
			}
		}
	}
}

func TestMultiplier(t *testing.T) {
	outs := Multiplier(3, 2)
	for a := 0; a < 8; a++ {
		for b := 0; b < 4; b++ {
			m := a | b<<3
			p := a * b
			for i := range outs {
				if outs[i].Bit(m) != (p>>uint(i)&1 == 1) {
					t.Fatalf("mult bit %d wrong at a=%d b=%d", i, a, b)
				}
			}
		}
	}
}

func TestComparator(t *testing.T) {
	f := Comparator(3)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if f.Bit(a|b<<3) != (a < b) {
				t.Fatalf("comp wrong at a=%d b=%d", a, b)
			}
		}
	}
}

func TestPopcountBits(t *testing.T) {
	outs := Popcount(5)
	if len(outs) != 3 {
		t.Fatalf("popcount5 needs 3 bits, got %d", len(outs))
	}
	for m := 0; m < 32; m++ {
		c := popcount(m)
		for i := range outs {
			if outs[i].Bit(m) != (c>>uint(i)&1 == 1) {
				t.Fatalf("popcount bit %d wrong at %d", i, m)
			}
		}
	}
}

func TestMuxDecoder(t *testing.T) {
	f := Mux(2) // 4:1 mux, 6 inputs
	for m := 0; m < 64; m++ {
		sel := m & 3
		want := m>>uint(2+sel)&1 == 1
		if f.Bit(m) != want {
			t.Fatalf("mux4 wrong at %d", m)
		}
	}
	dec := Decoder(2)
	for m := 0; m < 4; m++ {
		for i := range dec {
			if dec[i].Bit(m) != (i == m) {
				t.Fatalf("decoder wrong at %d/%d", m, i)
			}
		}
	}
}

func TestPriorityEncoder(t *testing.T) {
	outs := PriorityEncoder(5)
	valid := outs[len(outs)-1]
	if valid.Bit(0) {
		t.Error("valid should be 0 on empty input")
	}
	// Input 0b10110: highest set = 4 -> index 100.
	m := 0b10110
	if !outs[2].Bit(m) || outs[1].Bit(m) || outs[0].Bit(m) {
		t.Error("priority index wrong")
	}
	if !valid.Bit(m) {
		t.Error("valid wrong")
	}
}

func TestGray(t *testing.T) {
	outs := GrayEncoder(3)
	for m := 0; m < 8; m++ {
		g := m ^ (m >> 1)
		for i := range outs {
			if outs[i].Bit(m) != (g>>uint(i)&1 == 1) {
				t.Fatalf("gray bit %d wrong at %d", i, m)
			}
		}
	}
}

func TestPresentSbox(t *testing.T) {
	// Check a few table entries bitwise.
	for x, want := range presentSbox {
		got := 0
		for b := 0; b < 4; b++ {
			if PresentSboxBit(b).Bit(x) {
				got |= 1 << uint(b)
			}
		}
		if got != want {
			t.Fatalf("present sbox(%d) = %#x, want %#x", x, got, want)
		}
	}
}

func TestAESSboxKnownValues(t *testing.T) {
	known := map[int]int{
		0x00: 0x63, 0x01: 0x7c, 0x02: 0x77, 0x10: 0xca,
		0x53: 0xed, 0xff: 0x16, 0xc9: 0xdd,
	}
	for x, want := range known {
		if aesSbox[x] != want {
			t.Errorf("aes sbox(%#02x) = %#02x, want %#02x", x, aesSbox[x], want)
		}
	}
	// S-box must be a permutation.
	seen := make(map[int]bool)
	for _, v := range aesSbox {
		if seen[v] {
			t.Fatal("aes sbox not a permutation")
		}
		seen[v] = true
	}
}

func TestGFArithmetic(t *testing.T) {
	// 0x53 * 0xCA = 0x01 in GF(2^8) (classic inverse pair).
	if got := gfMul(0x53, 0xCA); got != 0x01 {
		t.Errorf("gfMul(53,CA) = %#x", got)
	}
	if gfInv(0x53) != 0xCA || gfInv(0xCA) != 0x53 {
		t.Error("gfInv pair wrong")
	}
	if gfInv(0) != 0 || gfInv(1) != 1 {
		t.Error("gfInv corner cases wrong")
	}
	for x := 1; x < 256; x++ {
		if gfMul(x, gfInv(x)) != 1 {
			t.Fatalf("gfInv(%d) is not an inverse", x)
		}
	}
}

func TestBentFunctionProperty(t *testing.T) {
	// A bent function on n vars has Hamming weight 2^(n-1) ± 2^(n/2-1).
	for _, n := range []int{6, 8} {
		f := InnerProductBent(n)
		w := f.CountOnes()
		lo := 1<<(n-1) - 1<<(n/2-1)
		hi := 1<<(n-1) + 1<<(n/2-1)
		if w != lo && w != hi {
			t.Errorf("bent%d weight %d, want %d or %d", n, w, lo, hi)
		}
	}
}
