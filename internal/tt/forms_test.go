package tt

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTTIsFourWords guards the layout smallShape buys: the compiler keeps
// a struct in registers only up to four words, and a fifth made every
// operation on large tables slower.
func TestTTIsFourWords(t *testing.T) {
	if got, want := reflect.TypeOf(TT{}).Size(), 4*reflect.TypeOf(uintptr(0)).Size(); got != want {
		t.Errorf("TT is %d bytes, want %d", got, want)
	}
	for n := 0; n <= MaxVars; n++ {
		if got := New(n).NumVars(); got != n {
			t.Errorf("New(%d).NumVars() = %d", n, got)
		}
	}
	if !(TT{}).Equal(New(0)) {
		t.Error("the zero TT is not the constant-false table over 0 variables")
	}
}

// TestSmallTableOpsDoNotAllocate: a table of at most 6 variables is one
// inline word, so building, copying, combining and inspecting it never
// touches the heap.
func TestSmallTableOpsDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= 6; n++ {
		a, b := Random(n, r), Random(n, r)
		v := n / 2
		var sink TT
		var ok bool
		var mask uint32
		ops := map[string]func(){
			"And":         func() { sink = a.And(b) },
			"Or":          func() { sink = a.Or(b) },
			"Xor":         func() { sink = a.Xor(b) },
			"AndNot":      func() { sink = a.AndNot(b) },
			"Not":         func() { sink = a.Not() },
			"Equal":       func() { ok = a.Equal(b) },
			"SupportMask": func() { mask = a.SupportMask() },
			"Clone":       func() { sink = a.Clone() },
			"Const":       func() { sink = Const(n, true) },
		}
		if n > 0 {
			ops["Cofactor"] = func() { sink = a.Cofactor(v, true) }
			ops["FlipVar"] = func() { sink = a.FlipVar(v) }
			ops["HasVar"] = func() { ok = a.HasVar(v) }
			ops["Var"] = func() { sink = Var(v, n) }
		}
		for name, op := range ops {
			if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
				t.Errorf("%s over %d variables: %v allocations, want 0", name, n, allocs)
			}
		}
		_, _, _ = sink, ok, mask
	}
}

// TestHasVarMatchesCofactors checks the in-place HasVar and SupportMask
// against the definition — f depends on v when its two cofactors on v
// differ — for 0 to 10 variables, covering both table forms.
func TestHasVarMatchesCofactors(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 0; n <= 10; n++ {
		for trial := 0; trial < 20; trial++ {
			f := Random(n, r)
			// Drop some variables so that both answers occur.
			for v := 0; v < n; v++ {
				if r.Intn(3) == 0 {
					f = f.Cofactor(v, r.Intn(2) == 1)
				}
			}
			var want uint32
			for v := 0; v < n; v++ {
				dep := !f.Cofactor(v, false).Equal(f.Cofactor(v, true))
				if f.HasVar(v) != dep {
					t.Fatalf("n=%d v=%d %s: HasVar %v, cofactors say %v", n, v, f.Hex(), !dep, dep)
				}
				if dep {
					want |= 1 << v
				}
			}
			if got := f.SupportMask(); got != want {
				t.Fatalf("n=%d %s: SupportMask %b, want %b", n, f.Hex(), got, want)
			}
		}
	}
}

// TestOperationsLeaveOperandsUnchanged: no operation writes to its
// operands, on both sides of the 6/7 variable boundary between the
// inline and the heap form.
func TestOperationsLeaveOperandsUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for n := 5; n <= 8; n++ {
		a, b := Random(n, r), Random(n, r)
		a0, b0 := a.Clone(), b.Clone()
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		results := []TT{a.And(b), a.Or(b), a.Xor(b), a.AndNot(b), a.Not(), a.Clone(), a.Permute(perm), a.Expand(n + 1)}
		for v := 0; v < n; v++ {
			results = append(results, a.Cofactor(v, false), a.Cofactor(v, true), a.FlipVar(v))
			a.HasVar(v)
		}
		a.SupportMask()
		IsopOf(a)
		a.ANF()
		if !a.Equal(a0) || !b.Equal(b0) {
			t.Fatalf("n=%d: an operation changed its operands", n)
		}
		// Results own their words: writing every bit of one leaves the
		// operands alone.
		for _, res := range results {
			for m := 0; m < res.NumBits(); m++ {
				res.SetBit(m, !res.Bit(m))
			}
		}
		if !a.Equal(a0) || !b.Equal(b0) {
			t.Fatalf("n=%d: a result shares its words with an operand", n)
		}
	}
}
