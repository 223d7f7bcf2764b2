package sop

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tt"
)

func TestCoverBasics(t *testing.T) {
	f := tt.Var(0, 3).And(tt.Var(1, 3)).Or(tt.Var(2, 3))
	c := FromTT(f)
	if !c.TT().Equal(f) {
		t.Fatal("FromTT cover wrong")
	}
	if c.NumCubes() != 2 {
		t.Errorf("NumCubes = %d, want 2", c.NumCubes())
	}
	if c.NumLits() != 3 {
		t.Errorf("NumLits = %d, want 3", c.NumLits())
	}
	cl := c.Clone()
	cl.Cubes[0] = tt.Cube{}
	if c.Cubes[0].Mask == 0 {
		t.Error("Clone is not deep")
	}
}

func TestMinimizeCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 3 + trial%4
		f := tt.Random(n, r)
		c := MinimizeTT(f)
		if !c.TT().Equal(f) {
			t.Fatalf("trial %d: minimized cover computes wrong function", trial)
		}
	}
}

func TestMinimizeNoWorseThanIsop(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		n := 4 + trial%3
		f := tt.Random(n, r)
		isop := FromTT(f)
		min := MinimizeTT(f)
		if min.NumCubes() > isop.NumCubes() {
			t.Errorf("trial %d: minimize grew cubes %d -> %d", trial, isop.NumCubes(), min.NumCubes())
		}
	}
}

func TestMinimizeWithDontCares(t *testing.T) {
	// f = x0&x1 with DC on all minterms where x2=1: minimizer may use
	// them; result must match f on care set.
	n := 3
	f := tt.Var(0, n).And(tt.Var(1, n))
	dc := tt.Var(2, n)
	c := Minimize(f, dc)
	got := c.TT()
	care := dc.Not()
	if !got.And(care).Equal(f.And(care)) {
		t.Error("minimized cover differs on care set")
	}
}

func TestMinimizeKnownOptimal(t *testing.T) {
	// f = majority-of-three: 3 prime cubes of 2 literals each.
	n := 3
	maj := tt.Var(0, n).And(tt.Var(1, n)).
		Or(tt.Var(0, n).And(tt.Var(2, n))).
		Or(tt.Var(1, n).And(tt.Var(2, n)))
	c := MinimizeTT(maj)
	if c.NumCubes() != 3 || c.NumLits() != 6 {
		t.Errorf("maj3 minimized to %d cubes / %d lits, want 3/6", c.NumCubes(), c.NumLits())
	}
	// Constants.
	if got := MinimizeTT(tt.Const(4, false)); got.NumCubes() != 0 {
		t.Error("const0 should have empty cover")
	}
	got := MinimizeTT(tt.Const(4, true))
	if got.NumCubes() != 1 || got.NumLits() != 0 {
		t.Errorf("const1 cover = %v", got)
	}
}

func TestSmallestCubeContaining(t *testing.T) {
	n := 4
	// Set {0101, 0111}: x0=1, x1 varies, x2=1, x3=0 -> cube 1-10.
	set := tt.New(n)
	set.SetBit(0b0101, true)
	set.SetBit(0b0111, true)
	c := smallestCubeContaining(tt.Cube{}, set.Not())
	want, _ := tt.ParseCube(4, "1-10")
	if c != want {
		t.Errorf("got %v, want %v", c, want)
	}
	// Only the minterms within the cube count: within x2 & !x3 the set
	// is the same, and 0001, added below, lies outside it.
	within, _ := tt.ParseCube(4, "--10")
	if c := smallestCubeContaining(within, set.Not()); c != want {
		t.Errorf("within %v: got %v, want %v", within, c, want)
	}
	set.SetBit(0b0001, true)
	if c := smallestCubeContaining(within, set.Not()); c != want {
		t.Errorf("within %v, with 0001 outside it: got %v, want %v", within, c, want)
	}
}

func TestDivideByLiteral(t *testing.T) {
	// c = a*b + a*c + d  (vars 0..3)
	c := coverFromStrings(t, 4, "11--", "1-1-", "---1")
	quot, rem := c.DivideByLiteral(0, true)
	if quot.NumCubes() != 2 || rem.NumCubes() != 1 {
		t.Fatalf("quot=%v rem=%v", quot, rem)
	}
	// quot = b + c, rem = d.
	wantQ := coverFromStrings(t, 4, "-1--", "--1-")
	if quot.String() != wantQ.String() {
		t.Errorf("quot = %v, want %v", quot, wantQ)
	}
}

func coverFromStrings(t *testing.T, n int, cubes ...string) Cover {
	t.Helper()
	c := Cover{NumVars: n}
	for _, s := range cubes {
		cube, err := tt.ParseCube(n, s)
		if err != nil {
			t.Fatal(err)
		}
		c.Cubes = append(c.Cubes, cube)
	}
	return c
}

func TestAlgebraicDivide(t *testing.T) {
	// c = (a+b)(c+d) + e = ac + ad + bc + bd + e over vars a..e = 0..4.
	c := coverFromStrings(t, 5, "1-1--", "1--1-", "-11--", "-1-1-", "----1")
	d := coverFromStrings(t, 5, "1----", "-1---") // a + b
	quot, rem := c.Divide(d)
	wantQ := coverFromStrings(t, 5, "--1--", "---1-") // c + d
	if len(quot.Cubes) != 2 {
		t.Fatalf("quotient %v, want %v", quot, wantQ)
	}
	qtt := quot.TT()
	if !qtt.Equal(wantQ.TT()) {
		t.Errorf("quotient %v, want %v", quot, wantQ)
	}
	if rem.NumCubes() != 1 || rem.Cubes[0].String() != "----1" {
		t.Errorf("remainder %v, want e", rem)
	}
	// Verify the algebraic identity d*q + r == c as functions.
	rebuilt := d.TT().And(qtt).Or(rem.TT())
	if !rebuilt.Equal(c.TT()) {
		t.Error("d*q + r != c")
	}
}

func TestDivideNoCommon(t *testing.T) {
	c := coverFromStrings(t, 3, "1--", "-1-")
	d := coverFromStrings(t, 3, "--1")
	quot, rem := c.Divide(d)
	if len(quot.Cubes) != 0 || len(rem.Cubes) != 2 {
		t.Errorf("quot=%v rem=%v", quot, rem)
	}
	// Dividing by the empty cover.
	quot, rem = c.Divide(Cover{NumVars: 3})
	if len(quot.Cubes) != 0 || len(rem.Cubes) != 2 {
		t.Error("division by empty cover should return c as remainder")
	}
}

func TestCommonCube(t *testing.T) {
	c := coverFromStrings(t, 4, "110-", "1-01", "11-1")
	cc := c.commonCube()
	want, _ := tt.ParseCube(4, "1---")
	if cc != want {
		t.Errorf("commonCube = %v, want %v", cc, want)
	}
	free, pulled := c.MakeCubeFree()
	if pulled != want {
		t.Error("MakeCubeFree cube wrong")
	}
	if free.commonCube().Mask != 0 {
		t.Error("result is not cube-free")
	}
}

func TestKernels(t *testing.T) {
	// The textbook example: f = ace + bce + de + g (vars a..g = 0..6).
	c := coverFromStrings(t, 7, "1-1-1--", "-11-1--", "---11--", "------1")
	kernels := c.Kernels()
	// Expected kernels include (a+b) with cokernel ce, (ac+bc+d) with
	// cokernel e, and the cover itself (cube-free).
	var found []string
	for _, k := range kernels {
		found = append(found, k.Cover.TT().Hex())
	}
	wantAB := coverFromStrings(t, 7, "1------", "-1-----").TT().Hex()
	ok := false
	for _, h := range found {
		if h == wantAB {
			ok = true
		}
	}
	if !ok {
		t.Errorf("kernel (a+b) not found among %d kernels", len(kernels))
	}
	for _, k := range kernels {
		if len(k.Cover.Cubes) < 2 {
			t.Error("kernel with fewer than 2 cubes")
		}
		if k.Cover.commonCube().Mask != 0 {
			t.Errorf("kernel %v is not cube-free", k.Cover)
		}
	}
}

func TestFactorPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		n := 3 + trial%5
		f := tt.Random(n, r)
		c := MinimizeTT(f)
		e := Factor(c)
		if !e.TT(n).Equal(f) {
			t.Fatalf("trial %d (n=%d): factored form wrong:\n cover %v\n expr %v", trial, n, c, e)
		}
	}
}

func TestFactorQuick(t *testing.T) {
	qf := func(w uint64) bool {
		f := tt.FromWords(6, []uint64{w})
		c := FromTT(f)
		return Factor(c).TT(6).Equal(f)
	}
	if err := quick.Check(qf, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFactorSharing(t *testing.T) {
	// f = ab + ac + ad: factoring must find a(b+c+d), 4 literals not 6.
	c := coverFromStrings(t, 4, "11--", "1-1-", "1--1")
	e := Factor(c)
	if e.NumLits() > 4 {
		t.Errorf("factored form uses %d literals, want <= 4: %v", e.NumLits(), e)
	}
	// (a+b)(c+d): 4 literals, not 8.
	c2 := coverFromStrings(t, 4, "1-1-", "1--1", "-11-", "-1-1")
	e2 := Factor(c2)
	if e2.NumLits() > 4 {
		t.Errorf("(a+b)(c+d) factored to %d literals: %v", e2.NumLits(), e2)
	}
}

func TestFactorCorners(t *testing.T) {
	if Factor(Cover{NumVars: 3}).Kind != ExprConst0 {
		t.Error("empty cover should factor to const0")
	}
	taut := Cover{NumVars: 3, Cubes: []tt.Cube{{}}}
	if Factor(taut).Kind != ExprConst1 {
		t.Error("tautology cube should factor to const1")
	}
	single := coverFromStrings(t, 3, "10-")
	e := Factor(single)
	if e.NumLits() != 2 {
		t.Errorf("single cube factored to %d lits", e.NumLits())
	}
}

func TestExprString(t *testing.T) {
	c := coverFromStrings(t, 3, "11-", "--1")
	e := Factor(c)
	s := e.String()
	if s == "" || s == "?" {
		t.Errorf("String = %q", s)
	}
}

// TestFactorConcurrentMatchesSerial minimizes and factors the same
// tables of 7 to 10 variables from four goroutines at once, as harness
// and aigd workers do, and requires each result to equal the serial
// one: every Factor call's kernel searches own their finder.
func TestFactorConcurrentMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	var fs []tt.TT
	want := map[int]string{}
	for i := 0; i < 16; i++ {
		f := tt.Random(7+i%4, r)
		fs = append(fs, f)
		want[i] = Factor(MinimizeTT(f)).String()
	}
	var wg sync.WaitGroup
	got := make([][]string, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range fs {
				got[w] = append(got[w], Factor(MinimizeTT(f)).String())
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, e := range got[w] {
			if e != want[i] {
				t.Fatalf("worker %d table %d: %s, serial %s", w, i, e, want[i])
			}
		}
	}
}
