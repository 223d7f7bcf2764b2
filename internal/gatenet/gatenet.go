// Package gatenet is the structurally hashed gate network behind the two
// "other logic graph types" of the paper's future work: XOR-AND graphs
// (package xag) and majority-inverter graphs (package mig). A node is a
// two-input AND, a two-input XOR or a three-input majority, and edges
// are aig.Lit literals, so one literal type serves AIGs, XAGs and MIGs.
//
// The package holds what both graph types share: storage and
// accessors, simulation, cleanup, structural checks, AIG lowering, cut
// analysis, the cone-rewriting pass, the diversity profile and the
// chained expression construction. What a graph type means — which
// gates it builds and how it resynthesizes a cone — stays in xag and
// mig.
//
// It also holds the recipe pieces that AIGs (package synth), XAGs and
// MIGs share, written once over each graph type's own gates: the
// recipe table and lookup, Shannon expansion, BDD-to-MUX conversion,
// the balanced XOR tree and the sparser-polarity ANF.
package gatenet

import (
	"fmt"
	"slices"

	"repro/internal/aig"
	"repro/internal/tt"
)

// Kind is a gate type.
type Kind uint8

// Gate kinds.
const (
	And2 Kind = iota // AND of two fanins
	Xor2             // XOR of two uncomplemented fanins
	Maj3             // majority of three fanins, at most one complemented
)

// arity returns the fanin count of a gate of kind k.
func (k Kind) arity() int {
	if k == Maj3 {
		return 3
	}
	return 2
}

// strashKey identifies a gate by kind and normalized fanins; two-input
// gates leave the third fanin at aig.LitFalse.
type strashKey struct {
	kind   Kind
	fanins [3]aig.Lit
}

// Net is a structurally hashed gate network. Node 0 is constant false,
// nodes 1..NumPIs() are the inputs, and higher ids are gates created in
// topological order.
type Net struct {
	numPIs int
	kind   []Kind
	fanins [][3]aig.Lit
	level  []int32
	strash map[strashKey]int
	pos    []aig.Lit
}

// New creates a network with the given number of inputs and no gates.
func New(numPIs int) *Net {
	return &Net{
		numPIs: numPIs,
		kind:   make([]Kind, numPIs+1),
		fanins: make([][3]aig.Lit, numPIs+1),
		level:  make([]int32, numPIs+1),
		strash: make(map[strashKey]int),
	}
}

// NumPIs returns the input count.
func (n *Net) NumPIs() int { return n.numPIs }

// NumPOs returns the output count.
func (n *Net) NumPOs() int { return len(n.pos) }

// NumObjs returns constant + inputs + gates.
func (n *Net) NumObjs() int { return len(n.fanins) }

// NumGates returns the gate count.
func (n *Net) NumGates() int { return len(n.fanins) - n.numPIs - 1 }

// Count returns the number of gates of kind k.
func (n *Net) Count(k Kind) int {
	c := 0
	for _, gk := range n.kind[n.numPIs+1:] {
		if gk == k {
			c++
		}
	}
	return c
}

// PI returns the literal of input i.
func (n *Net) PI(i int) aig.Lit {
	if i < 0 || i >= n.numPIs {
		panic(fmt.Sprintf("gatenet: PI %d out of range", i))
	}
	return aig.MakeLit(i+1, false)
}

// PIs returns the literals of all inputs in order.
func (n *Net) PIs() []aig.Lit {
	lits := make([]aig.Lit, n.numPIs)
	for i := range lits {
		lits[i] = n.PI(i)
	}
	return lits
}

// PO returns output literal i.
func (n *Net) PO(i int) aig.Lit { return n.pos[i] }

// AddPO appends an output and returns its index.
func (n *Net) AddPO(l aig.Lit) int {
	n.pos = append(n.pos, l)
	return len(n.pos) - 1
}

// IsGate reports whether id is a gate.
func (n *Net) IsGate(id int) bool { return id > n.numPIs }

// IsPI reports whether id is an input.
func (n *Net) IsPI(id int) bool { return id >= 1 && id <= n.numPIs }

// Fanins returns gate id's fanin literals, two or three by kind. The
// slice aliases the network's storage and must not be modified.
func (n *Net) Fanins(id int) []aig.Lit {
	if !n.IsGate(id) {
		panic(fmt.Sprintf("gatenet: node %d is not a gate", id))
	}
	return n.fanins[id][:n.kind[id].arity()]
}

// Level returns the logic level of id.
func (n *Net) Level(id int) int { return int(n.level[id]) }

// NumLevels returns the output depth.
func (n *Net) NumLevels() int {
	d := int32(0)
	for _, l := range n.pos {
		d = max(d, n.level[l.Node()])
	}
	return int(d)
}

// And adds AND(a, b) to n with constant folding, ordered fanins and
// structural hashing. Gate constructors are functions rather than
// methods so that the graph types embedding *Net expose only their own
// gate sets.
func And(n *Net, a, b aig.Lit) aig.Lit {
	switch {
	case a == aig.LitFalse || b == aig.LitFalse:
		return aig.LitFalse
	case a == aig.LitTrue:
		return b
	case b == aig.LitTrue:
		return a
	case a == b:
		return a
	case a == b.Not():
		return aig.LitFalse
	}
	return n.node(And2, [3]aig.Lit{min(a, b), max(a, b)})
}

// Xor adds XOR(a, b) to n as a native XOR gate, pulling fanin
// complements to the output (xor(!a, b) == !xor(a, b)) so structural
// hashing catches every polarity variant.
func Xor(n *Net, a, b aig.Lit) aig.Lit {
	out := a.IsCompl() != b.IsCompl()
	a, b = a.Regular(), b.Regular()
	switch {
	case a == aig.LitFalse:
		return b.NotCond(out)
	case b == aig.LitFalse:
		return a.NotCond(out)
	case a == b:
		return aig.LitFalse.NotCond(out)
	}
	return n.node(Xor2, [3]aig.Lit{min(a, b), max(a, b)}).NotCond(out)
}

// Maj adds the majority of three literals to n, applying the majority
// axioms (duplicate and complement absorption), leaving at most one
// complemented fanin (majority is self-dual, so excess complements flip
// the output), sorting the fanins and hashing structurally.
func Maj(n *Net, a, b, c aig.Lit) aig.Lit {
	switch { // M(x, x, y) = x
	case a == b || a == c:
		return a
	case b == c:
		return b
	}
	switch { // M(x, !x, y) = y
	case a == b.Not():
		return c
	case a == c.Not():
		return b
	case b == c.Not():
		return a
	}
	f := [3]aig.Lit{a, b, c}
	compl := 0
	for _, l := range f {
		if l.IsCompl() {
			compl++
		}
	}
	out := compl >= 2
	if out {
		for i := range f {
			f[i] = f[i].Not()
		}
	}
	slices.Sort(f[:])
	return n.node(Maj3, f).NotCond(out)
}

// gate adds a gate of kind k over fanins f through the kind's
// constructor, which normalizes them.
func (n *Net) gate(k Kind, f [3]aig.Lit) aig.Lit {
	switch k {
	case And2:
		return And(n, f[0], f[1])
	case Xor2:
		return Xor(n, f[0], f[1])
	}
	return Maj(n, f[0], f[1], f[2])
}

// node returns the gate of kind k over normalized fanins f, creating it
// unless structural hashing finds it.
func (n *Net) node(k Kind, f [3]aig.Lit) aig.Lit {
	key := strashKey{k, f}
	if id, ok := n.strash[key]; ok {
		return aig.MakeLit(id, false)
	}
	lv := int32(0)
	for _, l := range f[:k.arity()] {
		if l.Node() >= n.NumObjs() {
			panic("gatenet: fanin references nonexistent node")
		}
		lv = max(lv, n.level[l.Node()])
	}
	id := len(n.fanins)
	n.kind = append(n.kind, k)
	n.fanins = append(n.fanins, f)
	n.level = append(n.level, lv+1)
	n.strash[key] = id
	return aig.MakeLit(id, false)
}

// eval returns gate id's function given a table for each fanin literal.
func (n *Net) eval(id int, in func(aig.Lit) tt.TT) tt.TT {
	var t [3]tt.TT
	for k, f := range n.Fanins(id) {
		t[k] = in(f)
	}
	switch n.kind[id] {
	case And2:
		return t[0].And(t[1])
	case Xor2:
		return t[0].Xor(t[1])
	}
	return t[0].And(t[1]).Or(t[0].And(t[2])).Or(t[1].And(t[2]))
}

// SimAll computes every node's truth table over the inputs.
func (n *Net) SimAll() []tt.TT {
	if n.numPIs > tt.MaxVars {
		panic(fmt.Sprintf("gatenet: SimAll limited to %d inputs", tt.MaxVars))
	}
	tabs := make([]tt.TT, n.NumObjs())
	tabs[0] = tt.New(n.numPIs)
	for i := 1; i <= n.numPIs; i++ {
		tabs[i] = tt.Var(i-1, n.numPIs)
	}
	in := func(l aig.Lit) tt.TT { return aig.LitTT(tabs, l) }
	for id := n.numPIs + 1; id < n.NumObjs(); id++ {
		tabs[id] = n.eval(id, in)
	}
	return tabs
}

// OutputTTs returns the truth table of every output.
func (n *Net) OutputTTs() []tt.TT {
	tabs := n.SimAll()
	out := make([]tt.TT, len(n.pos))
	for i, po := range n.pos {
		out[i] = aig.LitTT(tabs, po)
	}
	return out
}

// Cleanup returns a copy with only output-reachable gates.
func (n *Net) Cleanup() *Net { return n.rebuild(nil) }

// rebuild copies the output-reachable logic into a fresh network,
// demand-driven from the outputs. A node with an entry in repl is built
// by its replacement over its cut leaves instead of from its fanins.
func (n *Net) rebuild(repl map[int]replacement) *Net {
	ng := New(n.numPIs)
	m := make([]aig.Lit, n.NumObjs())
	done := make([]bool, n.NumObjs())
	var build func(id int) aig.Lit
	build = func(id int) aig.Lit {
		if !n.IsGate(id) {
			return aig.MakeLit(id, false)
		}
		if done[id] {
			return m[id]
		}
		if r, ok := repl[id]; ok {
			leaves := make([]aig.Lit, len(r.leaves))
			for i, leaf := range r.leaves {
				leaves[i] = build(leaf)
			}
			m[id] = r.build(ng, leaves)
		} else {
			var f [3]aig.Lit
			for k, l := range n.Fanins(id) {
				f[k] = build(l.Node()).NotCond(l.IsCompl())
			}
			m[id] = ng.gate(n.kind[id], f)
		}
		done[id] = true
		return m[id]
	}
	for _, po := range n.pos {
		ng.AddPO(build(po.Node()).NotCond(po.IsCompl()))
	}
	return ng
}

// Check validates the structural invariants: fanins point backwards and
// are sorted, XOR fanins are uncomplemented, a majority has at most one
// complemented fanin, and outputs exist.
func (n *Net) Check() error {
	for id := n.numPIs + 1; id < n.NumObjs(); id++ {
		f := n.Fanins(id)
		compl := 0
		for k, l := range f {
			if l.Node() >= id {
				return fmt.Errorf("gatenet: node %d has forward fanin", id)
			}
			if k > 0 && f[k-1] > l {
				return fmt.Errorf("gatenet: node %d fanins not normalized", id)
			}
			if l.IsCompl() {
				compl++
			}
		}
		switch {
		case n.kind[id] == Xor2 && compl > 0:
			return fmt.Errorf("gatenet: XOR node %d has complemented fanin", id)
		case n.kind[id] == Maj3 && compl > 1:
			return fmt.Errorf("gatenet: node %d has %d complemented fanins", id, compl)
		}
	}
	for i, po := range n.pos {
		if po.Node() >= n.NumObjs() {
			return fmt.Errorf("gatenet: PO %d dangling", i)
		}
	}
	return nil
}

// ToAIG lowers the network to an AIG: an XOR becomes three ANDs and a
// majority the two-level formula of aig.Maj3.
func (n *Net) ToAIG() *aig.AIG {
	a := aig.New(n.numPIs)
	m := make([]aig.Lit, n.NumObjs())
	for i := 1; i <= n.numPIs; i++ {
		m[i] = aig.MakeLit(i, false)
	}
	for id := n.numPIs + 1; id < n.NumObjs(); id++ {
		var x [3]aig.Lit
		for k, l := range n.Fanins(id) {
			x[k] = m[l.Node()].NotCond(l.IsCompl())
		}
		switch n.kind[id] {
		case And2:
			m[id] = a.And(x[0], x[1])
		case Xor2:
			m[id] = a.Xor(x[0], x[1])
		default:
			m[id] = a.Maj3(x[0], x[1], x[2])
		}
	}
	for _, po := range n.pos {
		a.AddPO(m[po.Node()].NotCond(po.IsCompl()))
	}
	return a.Cleanup()
}
