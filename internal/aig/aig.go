// Package aig implements And-Inverter Graphs: directed acyclic graphs of
// two-input AND nodes with complemented edges, the workhorse data structure
// of technology-independent logic synthesis.
//
// Nodes are identified by dense integer ids: id 0 is the constant-false
// node, ids 1..NumPIs() are primary inputs, and higher ids are AND nodes.
// Edges are literals (Lit): a node id shifted left by one with the low bit
// holding the complement flag, exactly as in the AIGER format. Nodes are
// created in topological order and structurally hashed, so two-level
// equivalent AND nodes are never duplicated.
package aig

import (
	"fmt"
	"slices"
)

// Lit is an edge literal: 2*node + complement, as in AIGER.
type Lit uint32

// Const literals.
const (
	LitFalse Lit = 0 // constant node, plain
	LitTrue  Lit = 1 // constant node, complemented
)

// MakeLit builds a literal from a node id and a complement flag.
func MakeLit(node int, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node id the literal points to.
func (l Lit) Node() int { return int(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotCond returns the literal complemented when c is true.
func (l Lit) NotCond(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Regular returns the literal with the complement bit cleared.
func (l Lit) Regular() Lit { return l &^ 1 }

func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!%d", l.Node())
	}
	return fmt.Sprintf("%d", l.Node())
}

// AIG is a structurally hashed And-Inverter Graph with a fixed set of
// primary inputs and an append-only set of AND nodes and primary outputs.
type AIG struct {
	numPIs  int
	fanin0  []Lit // per node; zero for const and PIs
	fanin1  []Lit
	level   []int32
	strash  map[uint64]int
	pos     []Lit
	piNames []string
	poNames []string
}

// New creates an AIG with the given number of primary inputs and no
// outputs.
func New(numPIs int) *AIG {
	g := &AIG{
		numPIs: numPIs,
		fanin0: make([]Lit, numPIs+1),
		fanin1: make([]Lit, numPIs+1),
		level:  make([]int32, numPIs+1),
		strash: make(map[uint64]int),
	}
	return g
}

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return g.numPIs }

// NumPOs returns the number of primary outputs.
func (g *AIG) NumPOs() int { return len(g.pos) }

// NumObjs returns the total object count: constant + PIs + AND nodes.
func (g *AIG) NumObjs() int { return len(g.fanin0) }

// NumAnds returns the number of AND nodes — the "gate count" G(A) used
// throughout the paper's metrics.
func (g *AIG) NumAnds() int { return len(g.fanin0) - g.numPIs - 1 }

// PI returns the literal of primary input i (0-based).
func (g *AIG) PI(i int) Lit {
	if i < 0 || i >= g.numPIs {
		panic(fmt.Sprintf("aig: PI index %d out of range", i))
	}
	return MakeLit(i+1, false)
}

// PO returns the literal driving primary output i.
func (g *AIG) PO(i int) Lit { return g.pos[i] }

// POs returns the output literals (not copied).
func (g *AIG) POs() []Lit { return g.pos }

// AddPO appends a primary output driven by l and returns its index.
func (g *AIG) AddPO(l Lit) int {
	g.pos = append(g.pos, l)
	return len(g.pos) - 1
}

// SetPO redirects an existing primary output.
func (g *AIG) SetPO(i int, l Lit) { g.pos[i] = l }

// IsAnd reports whether node id is an AND node.
func (g *AIG) IsAnd(id int) bool { return id > g.numPIs }

// Fanins returns the two fanin literals of an AND node.
func (g *AIG) Fanins(id int) (Lit, Lit) {
	if !g.IsAnd(id) {
		panic(fmt.Sprintf("aig: node %d is not an AND", id))
	}
	return g.fanin0[id], g.fanin1[id]
}

// Level returns the logic level of a node (PIs and const are level 0).
func (g *AIG) Level(id int) int { return int(g.level[id]) }

// NumLevels returns the depth of the AIG: the maximum level over the
// output drivers.
func (g *AIG) NumLevels() int {
	d := int32(0)
	for _, l := range g.pos {
		if lv := g.level[l.Node()]; lv > d {
			d = lv
		}
	}
	return int(d)
}

// PIName returns the symbol of PI i, or "" when unnamed.
func (g *AIG) PIName(i int) string {
	if i < len(g.piNames) {
		return g.piNames[i]
	}
	return ""
}

// POName returns the symbol of PO i, or "" when unnamed.
func (g *AIG) POName(i int) string {
	if i < len(g.poNames) {
		return g.poNames[i]
	}
	return ""
}

// SetPIName attaches a symbol to PI i.
func (g *AIG) SetPIName(i int, name string) {
	for len(g.piNames) <= i {
		g.piNames = append(g.piNames, "")
	}
	g.piNames[i] = name
}

// SetPOName attaches a symbol to PO i.
func (g *AIG) SetPOName(i int, name string) {
	for len(g.poNames) <= i {
		g.poNames = append(g.poNames, "")
	}
	g.poNames[i] = name
}

func strashKey(a, b Lit) uint64 {
	return uint64(a)<<32 | uint64(b)
}

// Lookup reports the existing node implementing AND(a, b), if any. The
// result is the plain literal of that node.
func (g *AIG) Lookup(a, b Lit) (Lit, bool) {
	if folded, ok := foldAnd(a, b); ok {
		return folded, true
	}
	if a > b {
		a, b = b, a
	}
	if id, ok := g.strash[strashKey(a, b)]; ok {
		return MakeLit(id, false), true
	}
	return 0, false
}

// foldAnd applies the constant and trivial-structure simplifications of
// two-input AND. The second result reports whether folding applied.
func foldAnd(a, b Lit) (Lit, bool) {
	switch {
	case a == LitFalse || b == LitFalse:
		return LitFalse, true
	case a == LitTrue:
		return b, true
	case b == LitTrue:
		return a, true
	case a == b:
		return a, true
	case a == b.Not():
		return LitFalse, true
	}
	return 0, false
}

// And returns a literal for AND(a, b), folding constants, reusing
// structurally identical nodes, and creating a new node otherwise.
func (g *AIG) And(a, b Lit) Lit {
	if folded, ok := foldAnd(a, b); ok {
		return folded
	}
	if a > b {
		a, b = b, a
	}
	key := strashKey(a, b)
	if id, ok := g.strash[key]; ok {
		return MakeLit(id, false)
	}
	if a.Node() >= len(g.fanin0) || b.Node() >= len(g.fanin0) {
		panic("aig: And fanin references nonexistent node")
	}
	id := len(g.fanin0)
	g.fanin0 = append(g.fanin0, a)
	g.fanin1 = append(g.fanin1, b)
	lv := g.level[a.Node()]
	if l2 := g.level[b.Node()]; l2 > lv {
		lv = l2
	}
	g.level = append(g.level, lv+1)
	g.strash[key] = id
	return MakeLit(id, false)
}

// Or returns a literal for OR(a, b).
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for XOR(a, b) built from three AND nodes (or
// fewer when sharing applies).
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns a literal for sel ? t : e.
func (g *AIG) Mux(sel, t, e Lit) Lit {
	if t == e {
		return t
	}
	if t == e.Not() {
		return g.Xor(sel, e)
	}
	return g.Or(g.And(sel, t), g.And(sel.Not(), e))
}

// Maj3 returns the majority of three literals.
func (g *AIG) Maj3(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// RefCounts returns the fanout count of every node, counting each fanin
// edge and each primary output once.
func (g *AIG) RefCounts() []int {
	refs := make([]int, g.NumObjs())
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		refs[g.fanin0[id].Node()]++
		refs[g.fanin1[id].Node()]++
	}
	for _, l := range g.pos {
		refs[l.Node()]++
	}
	return refs
}

// MFFCSize returns the size of the maximum fanout-free cone of AND node
// id: the number of AND nodes (including id) that become dead if id is
// removed. refs must come from RefCounts and is restored before return.
// Unlike MFFC it does not allocate.
func (g *AIG) MFFCSize(id int, refs []int) int {
	if !g.IsAnd(id) {
		return 0
	}
	n := g.deref(id, refs, nil, nil)
	g.reref(id, refs, nil)
	return n
}

// MFFC returns the AND nodes of the maximum fanout-free cone of id, id
// first, bounded by boundary: the walk never descends into a boundary
// node, which models cut leaves a replacement structure will still use.
// These are the nodes that die when id is replaced by logic over the
// boundary; a nil boundary gives the plain MFFC. The nodes are written to
// buf[:0], so a caller that passes back the previous result allocates
// only when a cone outgrows it. refs must come from RefCounts and is
// restored before return.
func (g *AIG) MFFC(id int, refs []int, boundary []int, buf []int) []int {
	nodes := buf[:0]
	if !g.IsAnd(id) {
		return nodes
	}
	g.deref(id, refs, boundary, &nodes)
	g.reref(id, refs, boundary)
	return nodes
}

// deref releases the fanin references of id, recursing into every AND
// node outside boundary whose count drops to zero, and returns how many
// AND nodes died, id included. A non-nil nodes collects them.
func (g *AIG) deref(id int, refs []int, boundary []int, nodes *[]int) int {
	if nodes != nil {
		*nodes = append(*nodes, id)
	}
	n := 1
	for _, f := range [2]Lit{g.fanin0[id], g.fanin1[id]} {
		fid := f.Node()
		refs[fid]--
		if refs[fid] == 0 && g.IsAnd(fid) && !slices.Contains(boundary, fid) {
			n += g.deref(fid, refs, boundary, nodes)
		}
	}
	return n
}

// reref undoes deref.
func (g *AIG) reref(id int, refs []int, boundary []int) {
	for _, f := range [2]Lit{g.fanin0[id], g.fanin1[id]} {
		fid := f.Node()
		if refs[fid] == 0 && g.IsAnd(fid) && !slices.Contains(boundary, fid) {
			g.reref(fid, refs, boundary)
		}
		refs[fid]++
	}
}

// Cleanup returns a copy of g containing only nodes reachable from the
// primary outputs, renumbered densely, along with the old→new literal
// map for the outputs (already applied).
func (g *AIG) Cleanup() *AIG {
	ng := New(g.numPIs)
	ng.piNames = append([]string(nil), g.piNames...)
	ng.poNames = append([]string(nil), g.poNames...)
	m := make([]Lit, g.NumObjs())
	for i := range m {
		m[i] = Lit(0xFFFFFFFF)
	}
	m[0] = LitFalse
	for i := 1; i <= g.numPIs; i++ {
		m[i] = MakeLit(i, false)
	}
	var build func(id int) Lit
	build = func(id int) Lit {
		if m[id] != Lit(0xFFFFFFFF) {
			return m[id]
		}
		f0 := build(g.fanin0[id].Node()).NotCond(g.fanin0[id].IsCompl())
		f1 := build(g.fanin1[id].Node()).NotCond(g.fanin1[id].IsCompl())
		l := ng.And(f0, f1)
		m[id] = l
		return l
	}
	for _, po := range g.pos {
		l := build(po.Node()).NotCond(po.IsCompl())
		ng.AddPO(l)
	}
	return ng
}

// Clone returns a deep copy of g.
func (g *AIG) Clone() *AIG {
	ng := &AIG{
		numPIs:  g.numPIs,
		fanin0:  append([]Lit(nil), g.fanin0...),
		fanin1:  append([]Lit(nil), g.fanin1...),
		level:   append([]int32(nil), g.level...),
		strash:  make(map[uint64]int, len(g.strash)),
		pos:     append([]Lit(nil), g.pos...),
		piNames: append([]string(nil), g.piNames...),
		poNames: append([]string(nil), g.poNames...),
	}
	for k, v := range g.strash {
		ng.strash[k] = v
	}
	return ng
}

// Check validates the structural invariants every synthesis recipe and
// optimization pass must preserve:
//
//   - the constant node and the PIs carry no fanins and sit at level 0;
//   - every AND's fanins point strictly backward, so the node array is a
//     topological order (this also rules out cycles, including
//     self-loops);
//   - fanins are normalized (fanin0 <= fanin1) and non-trivial: no
//     constant operand and no x&x / x&!x, all of which And() folds away;
//   - every level is exactly 1 + max(fanin levels);
//   - the strash table is a bijection between fanin pairs and AND nodes:
//     every AND is registered under its fanin key, the entry points back
//     at it (a mismatch means a structural duplicate), and the table
//     holds exactly NumAnds entries (no stale leftovers);
//   - every PO references an existing node.
//
// It returns an error describing the first violation found. Check does
// not require the graph to be dangling-free — passes legitimately leave
// dead cones behind until Cleanup; CheckStrict adds that requirement.
func (g *AIG) Check() error {
	for id := 0; id <= g.numPIs && id < g.NumObjs(); id++ {
		if g.fanin0[id] != 0 || g.fanin1[id] != 0 {
			return fmt.Errorf("aig: non-AND node %d has fanins (%v, %v)", id, g.fanin0[id], g.fanin1[id])
		}
		if g.level[id] != 0 {
			return fmt.Errorf("aig: non-AND node %d has level %d, want 0", id, g.level[id])
		}
	}
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		if f0.Node() >= id || f1.Node() >= id {
			return fmt.Errorf("aig: node %d has forward or cyclic fanin (%v, %v)", id, f0, f1)
		}
		if f0 > f1 {
			return fmt.Errorf("aig: node %d fanins (%v, %v) not normalized", id, f0, f1)
		}
		if f0.Node() == 0 {
			return fmt.Errorf("aig: node %d has constant fanin %v, which And() should have folded", id, f0)
		}
		if f0.Regular() == f1.Regular() {
			return fmt.Errorf("aig: node %d is trivial (%v, %v), which And() should have folded", id, f0, f1)
		}
		want := g.level[f0.Node()]
		if l := g.level[f1.Node()]; l > want {
			want = l
		}
		if g.level[id] != want+1 {
			return fmt.Errorf("aig: node %d has level %d, want %d", id, g.level[id], want+1)
		}
		switch got, ok := g.strash[strashKey(f0, f1)]; {
		case !ok:
			return fmt.Errorf("aig: node %d missing from strash table", id)
		case got != id:
			return fmt.Errorf("aig: node %d is a structural duplicate of node %d (strash not canonical)", id, got)
		}
	}
	if len(g.strash) != g.NumAnds() {
		return fmt.Errorf("aig: strash table has %d entries for %d AND nodes (stale entries)", len(g.strash), g.NumAnds())
	}
	for i, po := range g.pos {
		if po.Node() >= g.NumObjs() {
			return fmt.Errorf("aig: PO %d references nonexistent node %d", i, po.Node())
		}
	}
	return nil
}

// CheckStrict is Check plus the dangling-node invariant: every AND node
// must be referenced by another AND or a PO. Because the graph is
// acyclic, that is equivalent to every AND being reachable from some
// PO. Use it at emission boundaries (after Cleanup, before AIGER
// serialization); mid-flow graphs legitimately fail it.
func (g *AIG) CheckStrict() error {
	if err := g.Check(); err != nil {
		return err
	}
	refs := g.RefCounts()
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			return fmt.Errorf("aig: AND node %d is dangling (zero references); run Cleanup before emitting", id)
		}
	}
	return nil
}

// Stats summarizes an AIG for reporting.
type Stats struct {
	PIs    int
	POs    int
	Ands   int
	Levels int
}

// Stat returns summary statistics of g.
func (g *AIG) Stat() Stats {
	return Stats{PIs: g.numPIs, POs: g.NumPOs(), Ands: g.NumAnds(), Levels: g.NumLevels()}
}

func (s Stats) String() string {
	return fmt.Sprintf("i/o = %d/%d  and = %d  lev = %d", s.PIs, s.POs, s.Ands, s.Levels)
}
