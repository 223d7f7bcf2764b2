package tt

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCubeBasics(t *testing.T) {
	c := Cube{}.WithLit(0, true).WithLit(2, false)
	if c.NumLits() != 2 {
		t.Errorf("NumLits = %d, want 2", c.NumLits())
	}
	if !c.HasVar(0) || c.HasVar(1) || !c.HasVar(2) {
		t.Error("HasVar wrong")
	}
	if !c.Phase(0) || c.Phase(2) {
		t.Error("Phase wrong")
	}
	// Cube x0 & !x2 over 3 vars: minterms with bit0=1, bit2=0: 1, 3.
	want := Var(0, 3).And(Var(2, 3).Not())
	if !c.TT(3).Equal(want) {
		t.Error("Cube.TT mismatch")
	}
}

func TestCubeString(t *testing.T) {
	c := Cube{}.WithLit(0, true).WithLit(2, false)
	if got := c.String(); got != "1-0" {
		t.Errorf("String = %q, want 1-0", got)
	}
	parsed, err := ParseCube(3, "1-0")
	if err != nil {
		t.Fatal(err)
	}
	if parsed != c {
		t.Errorf("ParseCube round trip: %+v != %+v", parsed, c)
	}
	if (Cube{}).String() != "-" {
		t.Error("tautology cube should render as -")
	}
	if _, err := ParseCube(2, "111"); err == nil {
		t.Error("over-long cube should fail")
	}
	if _, err := ParseCube(3, "1x0"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestIsopExactRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			f := Random(n, r)
			cover := IsopOf(f)
			if !CoverTT(n, cover).Equal(f) {
				t.Fatalf("n=%d: ISOP cover does not realize the function", n)
			}
		}
	}
}

func TestIsopCorners(t *testing.T) {
	if got := IsopOf(Const(4, false)); len(got) != 0 {
		t.Errorf("ISOP of const0 has %d cubes, want 0", len(got))
	}
	got := IsopOf(Const(4, true))
	if len(got) != 1 || got[0].NumLits() != 0 {
		t.Errorf("ISOP of const1 = %v, want single tautology cube", got)
	}
	// Single variable.
	cov := IsopOf(Var(2, 5))
	if len(cov) != 1 || cov[0].NumLits() != 1 || !cov[0].Phase(2) {
		t.Errorf("ISOP of x2 = %v", cov)
	}
}

func TestIsopXorCubeCount(t *testing.T) {
	// n-input XOR needs exactly 2^(n-1) cubes in any SOP.
	for n := 2; n <= 5; n++ {
		f := New(n)
		f = f.Not().AndNot(f) // placeholder to keep shape; rebuilt below
		f = Var(0, n)
		for v := 1; v < n; v++ {
			f = f.Xor(Var(v, n))
		}
		cover := IsopOf(f)
		if len(cover) != 1<<(n-1) {
			t.Errorf("XOR%d ISOP has %d cubes, want %d", n, len(cover), 1<<(n-1))
		}
		for _, c := range cover {
			if c.NumLits() != n {
				t.Errorf("XOR%d cube %v has %d lits, want %d", n, c, c.NumLits(), n)
			}
		}
	}
}

func TestIsopIrredundant(t *testing.T) {
	// Removing any cube from an ISOP must lose some minterm.
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 3 + trial%4
		f := Random(n, r)
		cover := IsopOf(f)
		for drop := range cover {
			reduced := make([]Cube, 0, len(cover)-1)
			reduced = append(reduced, cover[:drop]...)
			reduced = append(reduced, cover[drop+1:]...)
			if CoverTT(n, reduced).Equal(f) {
				t.Fatalf("trial %d: cube %d is redundant in ISOP", trial, drop)
			}
		}
	}
}

func TestIsopInterval(t *testing.T) {
	// With L < U the cover must lie in the interval.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 4 + trial%3
		a, b := Random(n, r), Random(n, r)
		L := a.And(b)
		U := a.Or(b)
		cover := Isop(L, U)
		f := CoverTT(n, cover)
		if !L.AndNot(f).IsConst0() {
			t.Fatalf("trial %d: cover misses required minterms", trial)
		}
		if !f.AndNot(U).IsConst0() {
			t.Fatalf("trial %d: cover exceeds upper bound", trial)
		}
	}
}

func TestIsopRequiresOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Isop with L > U should panic")
		}
	}()
	Isop(Const(3, true), Const(3, false))
}

func TestIsopQuick(t *testing.T) {
	f := func(w uint64) bool {
		fn := FromWords(6, []uint64{w})
		return CoverTT(6, IsopOf(fn)).Equal(fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCubePrimitivesMatchCubeTT checks DisjointCube, CoversCube and
// OrCube against the cube's own table on random cubes and tables of 0 to
// 10 variables, and against cubes carrying literals beyond the table.
func TestCubePrimitivesMatchCubeTT(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 0; n <= 10; n++ {
		for trial := 0; trial < 200; trial++ {
			var c Cube
			for v := 0; v < n+2; v++ {
				switch r.Intn(3) {
				case 1:
					c = c.WithLit(v, true)
				case 2:
					c = c.WithLit(v, false)
				}
			}
			ct := c.TT(n)
			f := Random(n, r)
			if trial%4 == 0 {
				f = f.Or(ct) // covering tables are rare among random ones
			}
			if got, want := f.DisjointCube(c), f.And(ct).IsConst0(); got != want {
				t.Fatalf("n=%d cube %v table %s: DisjointCube %v, want %v", n, c, f.Hex(), got, want)
			}
			if got, want := f.CoversCube(c), ct.AndNot(f).IsConst0(); got != want {
				t.Fatalf("n=%d cube %v table %s: CoversCube %v, want %v", n, c, f.Hex(), got, want)
			}
			g := f.Clone()
			g.OrCube(c)
			if want := f.Or(ct); !g.Equal(want) {
				t.Fatalf("n=%d cube %v table %s: OrCube %s, want %s", n, c, f.Hex(), g.Hex(), want.Hex())
			}
		}
	}
}

// isopRecOracle is isopRec without the one-word recursion: every level
// works on tables of the full variable count.
func isopRecOracle(L, U TT, nv int) ([]Cube, TT) {
	if L.IsConst0() {
		return nil, New(L.NumVars())
	}
	if U.IsConst1() {
		return []Cube{{}}, Const(L.NumVars(), true)
	}
	v := nv - 1
	for v >= 0 && !L.HasVar(v) && !U.HasVar(v) {
		v--
	}
	L0, L1 := L.Cofactor(v, false), L.Cofactor(v, true)
	U0, U1 := U.Cofactor(v, false), U.Cofactor(v, true)
	c0, f0 := isopRecOracle(L0.AndNot(U1), U0, v)
	c1, f1 := isopRecOracle(L1.AndNot(U0), U1, v)
	cs, fs := isopRecOracle(L0.AndNot(f0).Or(L1.AndNot(f1)), U0.And(U1), v)
	var cover []Cube
	for _, c := range c0 {
		cover = append(cover, c.WithLit(v, false))
	}
	for _, c := range c1 {
		cover = append(cover, c.WithLit(v, true))
	}
	cover = append(cover, cs...)
	x := Var(v, L.NumVars())
	return cover, fs.Or(x.Not().And(f0)).Or(x.And(f1))
}

// TestIsopMatchesOracle requires the same cubes, in the same order, as
// the full-width recursion on random intervals of 0 to 10 variables.
func TestIsopMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for n := 0; n <= 10; n++ {
		for trial := 0; trial < 20; trial++ {
			L := Random(n, r).And(Random(n, r))
			U := L.Or(Random(n, r))
			want, _ := isopRecOracle(L, U, n)
			if got := Isop(L, U); !slices.Equal(got, want) {
				t.Fatalf("n=%d L=%s U=%s: Isop %v, oracle %v", n, L.Hex(), U.Hex(), got, want)
			}
		}
	}
}

// TestIsopAllocations pins the ISOP of a fixed random 8-variable table:
// the L <= U check's table, one word stack and the growth of the one
// cube slice to its 51 cubes make 9 allocations, and the budget sits
// about 25% above. A recursion that built tables and a cover at every
// level above 6 variables made 334.
func TestIsopAllocations(t *testing.T) {
	f := Random(8, rand.New(rand.NewSource(88)))
	const budget = 11
	allocs := testing.AllocsPerRun(3, func() { IsopOf(f) })
	t.Logf("IsopOf over 8 variables: %v allocations", allocs)
	if allocs > budget {
		t.Errorf("IsopOf over 8 variables made %v allocations, budget %v", allocs, budget)
	}
}

// TestIsopSkippedVariablesMatchOracle requires the oracle's cubes on
// intervals that ignore some of their variables, so the recursion meets
// tables whose top variables are don't-cares and must repeat a smaller
// realized function across their words.
func TestIsopSkippedVariablesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for n := 7; n <= 10; n++ {
		for trial := 0; trial < 40; trial++ {
			L := Random(n, r).And(Random(n, r))
			U := L.Or(Random(n, r))
			for v := 0; v < n; v++ {
				if r.Intn(3) == 0 {
					b := r.Intn(2) == 0
					L, U = L.Cofactor(v, b), U.Cofactor(v, b)
				}
			}
			want, _ := isopRecOracle(L, U, n)
			if got := Isop(L, U); !slices.Equal(got, want) {
				t.Fatalf("n=%d L=%s U=%s: Isop %v, oracle %v", n, L.Hex(), U.Hex(), got, want)
			}
		}
	}
}
