package tt

// This file provides functional-analysis utilities on truth tables:
// unateness, variable symmetry, influence, and totally-symmetric
// detection. They support synthesis heuristics and workload
// characterization.

// Unateness classifies a function's dependence on one variable.
type Unateness int

// Unateness values.
const (
	Independent Unateness = iota // variable not in the support
	PositiveUnate
	NegativeUnate
	Binate
)

func (u Unateness) String() string {
	switch u {
	case Independent:
		return "independent"
	case PositiveUnate:
		return "positive-unate"
	case NegativeUnate:
		return "negative-unate"
	default:
		return "binate"
	}
}

// UnatenessIn reports how f depends on variable v: positive unate when
// raising v never lowers f, negative unate when it never raises f.
func (t TT) UnatenessIn(v int) Unateness {
	c0, c1 := t.Cofactor(v, false), t.Cofactor(v, true)
	posOK := c0.AndNot(c1).IsConst0() // c0 <= c1
	negOK := c1.AndNot(c0).IsConst0() // c1 <= c0
	switch {
	case posOK && negOK:
		return Independent
	case posOK:
		return PositiveUnate
	case negOK:
		return NegativeUnate
	default:
		return Binate
	}
}

// IsUnate reports whether f is unate in every support variable.
func (t TT) IsUnate() bool {
	for v := 0; v < t.NumVars(); v++ {
		if t.UnatenessIn(v) == Binate {
			return false
		}
	}
	return true
}

// SymmetricIn reports whether f is invariant under exchanging variables
// u and v (first-order symmetry).
func (t TT) SymmetricIn(u, v int) bool {
	if u == v {
		return true
	}
	// f is symmetric in (u, v) iff the (0,1) and (1,0) cofactors agree.
	c01 := t.Cofactor(u, false).Cofactor(v, true)
	c10 := t.Cofactor(u, true).Cofactor(v, false)
	return c01.Equal(c10)
}

// IsTotallySymmetric reports whether f depends only on the number of
// true inputs; if so it also returns the value profile indexed by
// popcount.
func (t TT) IsTotallySymmetric() ([]bool, bool) {
	profile := make([]bool, t.NumVars()+1)
	set := make([]bool, t.NumVars()+1)
	for m := 0; m < t.NumBits(); m++ {
		c := popcountInt(m)
		v := t.Bit(m)
		if !set[c] {
			set[c] = true
			profile[c] = v
		} else if profile[c] != v {
			return nil, false
		}
	}
	return profile, true
}

// Influence returns the Boolean influence of variable v: the fraction of
// input pairs differing only in v on which f differs.
func (t TT) Influence(v int) float64 {
	d := t.Cofactor(v, false).Xor(t.Cofactor(v, true))
	return float64(d.CountOnes()) / float64(t.NumBits())
}

// SymmetryClasses partitions the support variables into maximal groups
// of pairwise symmetric variables.
func (t TT) SymmetryClasses() [][]int {
	sup := t.Support()
	var classes [][]int
	for _, v := range sup {
		placed := false
		for i, cls := range classes {
			if t.SymmetricIn(cls[0], v) {
				classes[i] = append(cls, v)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{v})
		}
	}
	return classes
}

func popcountInt(m int) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}
