package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tt"
)

// ToTT expands node f back into a truth table. The tests use it as the
// oracle that a built BDD realizes its function.
func (m *Manager) ToTT(f int32) tt.TT {
	memo := map[int32]tt.TT{
		False: tt.Const(m.nvars, false),
		True:  tt.Const(m.nvars, true),
	}
	var rec func(n int32) tt.TT
	rec = func(n int32) tt.TT {
		if t, ok := memo[n]; ok {
			return t
		}
		v := tt.Var(int(m.level[n]), m.nvars)
		t := v.And(rec(m.high[n])).Or(v.Not().And(rec(m.low[n])))
		memo[n] = t
		return t
	}
	return rec(f)
}

func TestTerminalsAndVar(t *testing.T) {
	m := NewManager(3)
	x := m.FromTT(tt.Var(1, 3))
	if m.Level(x) != 1 || m.Low(x) != False || m.High(x) != True {
		t.Error("Var structure wrong")
	}
	if m.FromTT(tt.Var(1, 3)) != x {
		t.Error("unique table not shared")
	}
	if m.NodeCount(x) != 1 {
		t.Errorf("NodeCount(var) = %d", m.NodeCount(x))
	}
	if m.NodeCount(False) != 0 || m.NodeCount(True) != 0 {
		t.Error("terminal node counts wrong")
	}
	if m.FromTT(tt.Const(3, false)) != False || m.FromTT(tt.Const(3, true)) != True {
		t.Error("constants are not the terminals")
	}
}

func TestCanonicity(t *testing.T) {
	// The same function built two different ways must be the same node,
	// and a subfunction built on its own must be the node the larger
	// function shares.
	m := NewManager(4)
	a, b := tt.Var(0, 4), tt.Var(1, 4)
	lhs := m.FromTT(a.And(b).Not())
	rhs := m.FromTT(a.Not().Or(b.Not()))
	if lhs != rhs {
		t.Error("De Morgan forms are different nodes: BDD not canonical")
	}
	c, d := tt.Var(2, 4), tt.Var(3, 4)
	sub := m.FromTT(c.Xor(d))
	if f := m.FromTT(a.And(c.Xor(d))); m.High(f) != sub {
		t.Error("shared subfunction is a different node: BDD not canonical")
	}
}

func TestFromTTRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(w uint64) bool {
		fn := tt.FromWords(6, []uint64{w})
		m := NewManager(6)
		return m.ToTT(m.FromTT(fn)).Equal(fn)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOrderSensitivity(t *testing.T) {
	// The classic order-sensitive function: x0*x1 + x2*x3 + x4*x5.
	n := 6
	f := tt.Var(0, n).And(tt.Var(1, n)).
		Or(tt.Var(2, n).And(tt.Var(3, n))).
		Or(tt.Var(4, n).And(tt.Var(5, n)))
	good := BuildOrdered(f, []int{0, 1, 2, 3, 4, 5})
	bad := BuildOrdered(f, []int{0, 2, 4, 1, 3, 5})
	if good.Size() >= bad.Size() {
		t.Errorf("pair order (%d nodes) should beat interleaved (%d nodes)", good.Size(), bad.Size())
	}
	// Both orders must still realize f.
	for _, o := range []Ordered{good, bad} {
		back := o.M.ToTT(o.Root)
		// Undo the permutation: manager var i is original Order[i].
		inv := make([]int, n)
		for i, p := range o.Order {
			inv[p] = i
		}
		if !back.Permute(inv).Equal(f) {
			t.Error("ordered build does not realize the function")
		}
	}
}

func TestSiftOrderImproves(t *testing.T) {
	n := 6
	f := tt.Var(0, n).And(tt.Var(3, n)).
		Or(tt.Var(1, n).And(tt.Var(4, n))).
		Or(tt.Var(2, n).And(tt.Var(5, n)))
	identity := []int{0, 1, 2, 3, 4, 5}
	before := BuildOrdered(f, identity).Size()
	order := SiftOrder(f, 3)
	after := BuildOrdered(f, order).Size()
	if after > before {
		t.Errorf("sifting made things worse: %d -> %d", before, after)
	}
	if after >= before {
		t.Logf("no improvement found (%d vs %d); function may already be optimal", after, before)
	}
	// Order must be a permutation.
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("SiftOrder returned invalid permutation %v", order)
		}
		seen[v] = true
	}
}

func TestSiftOrderPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for trial := 0; trial < 5; trial++ {
		n := 5 + trial%3
		f := tt.Random(n, r)
		order := SiftOrder(f, 2)
		o := BuildOrdered(f, order)
		inv := make([]int, n)
		for i, p := range o.Order {
			inv[p] = i
		}
		if !o.M.ToTT(o.Root).Permute(inv).Equal(f) {
			t.Fatalf("trial %d: sifted BDD does not realize f", trial)
		}
	}
}
