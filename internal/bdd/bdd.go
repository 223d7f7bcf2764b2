// Package bdd implements reduced ordered binary decision diagrams with a
// shared unique table and order search by rebuilding.
//
// The manager is deliberately simple: nodes are append-only, terminals are
// ids 0 (false) and 1 (true), and no complement edges are used. For the
// function sizes this project targets (<= 16 inputs) rebuilding a BDD
// under a new variable order is cheap, so variable reordering is performed
// by rebuild-based sifting rather than in-place level swaps.
package bdd

import "repro/internal/tt"

// Node ids of the terminals.
const (
	False = 0
	True  = 1
)

type nodeKey struct {
	level     int32
	low, high int32
}

// Manager owns a shared ROBDD forest over a fixed number of variables.
// Variable i branches at level i: lower levels are tested first.
type Manager struct {
	nvars  int
	level  []int32 // per node
	low    []int32
	high   []int32
	unique map[nodeKey]int32
}

// NewManager creates a manager for n variables.
func NewManager(n int) *Manager {
	m := &Manager{
		nvars:  n,
		level:  []int32{int32(n), int32(n)}, // terminals live below all vars
		low:    []int32{-1, -1},
		high:   []int32{-1, -1},
		unique: make(map[nodeKey]int32),
	}
	return m
}

// mk returns the node (level, low, high), applying the reduction rules.
func (m *Manager) mk(level, low, high int32) int32 {
	if low == high {
		return low
	}
	k := nodeKey{level, low, high}
	if id, ok := m.unique[k]; ok {
		return id
	}
	id := int32(len(m.level))
	m.level = append(m.level, level)
	m.low = append(m.low, low)
	m.high = append(m.high, high)
	m.unique[k] = id
	return id
}

// Level returns the branching level of node f (m.nvars for terminals).
func (m *Manager) Level(f int32) int { return int(m.level[f]) }

// Low and High expose node children for traversals.
func (m *Manager) Low(f int32) int32  { return m.low[f] }
func (m *Manager) High(f int32) int32 { return m.high[f] }

// NodeCount returns the number of internal (non-terminal) nodes reachable
// from f.
func (m *Manager) NodeCount(f int32) int {
	seen := map[int32]bool{}
	var rec func(n int32)
	rec = func(n int32) {
		if n <= True || seen[n] {
			return
		}
		seen[n] = true
		rec(m.low[n])
		rec(m.high[n])
	}
	rec(f)
	return len(seen)
}

// FromTT builds the BDD of a truth table under the identity variable
// order.
func (m *Manager) FromTT(f tt.TT) int32 {
	if f.NumVars() != m.nvars {
		panic("bdd: truth table arity mismatch")
	}
	memo := make(map[string]int32)
	var rec func(g tt.TT, v int) int32
	rec = func(g tt.TT, v int) int32 {
		if g.IsConst0() {
			return False
		}
		if g.IsConst1() {
			return True
		}
		key := g.Hex()
		if r, ok := memo[key]; ok {
			return r
		}
		// Find the first variable >= v in the support.
		for !g.HasVar(v) {
			v++
		}
		r := m.mk(int32(v), rec(g.Cofactor(v, false), v+1), rec(g.Cofactor(v, true), v+1))
		memo[key] = r
		return r
	}
	return rec(f, 0)
}
