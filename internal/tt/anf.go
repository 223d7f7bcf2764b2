package tt

// ANF computes the algebraic normal form (positive-polarity Reed-Muller
// expansion) of the function: the list of monomials, each a bitmask of
// participating variables, whose XOR equals f. The empty monomial (mask 0)
// denotes the constant 1.
func (t TT) ANF() []uint32 {
	g := t.Clone()
	// Möbius transform: for each variable, XOR the low cofactor into the
	// high half.
	for v := 0; v < g.NumVars(); v++ {
		lo := g.Cofactor(v, false)
		g = g.Xor(Var(v, g.NumVars()).And(lo))
	}
	var monomials []uint32
	for m := 0; m < g.NumBits(); m++ {
		if g.Bit(m) {
			monomials = append(monomials, uint32(m))
		}
	}
	return monomials
}

// FromANF rebuilds a truth table from ANF monomials over n variables.
func FromANF(n int, monomials []uint32) TT {
	f := New(n)
	for _, m := range monomials {
		cube := Cube{Mask: m, Val: m}
		f = f.Xor(cube.TT(n))
	}
	return f
}
