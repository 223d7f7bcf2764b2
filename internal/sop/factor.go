package sop

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/tt"
)

// ExprKind discriminates factored-form expression nodes.
type ExprKind int

// Expression node kinds.
const (
	ExprConst0 ExprKind = iota
	ExprConst1
	ExprLit
	ExprAnd
	ExprOr
)

// Expr is a factored-form expression tree over cover variables. And/Or
// nodes are n-ary.
type Expr struct {
	Kind ExprKind
	Var  int  // for ExprLit
	Pos  bool // for ExprLit
	Args []*Expr
}

// NumLits counts literal leaves, the conventional factored-form cost.
func (e *Expr) NumLits() int {
	switch e.Kind {
	case ExprLit:
		return 1
	case ExprAnd, ExprOr:
		n := 0
		for _, a := range e.Args {
			n += a.NumLits()
		}
		return n
	default:
		return 0
	}
}

// TT evaluates the expression into a truth table over n variables.
func (e *Expr) TT(n int) tt.TT {
	switch e.Kind {
	case ExprConst0:
		return tt.Const(n, false)
	case ExprConst1:
		return tt.Const(n, true)
	case ExprLit:
		v := tt.Var(e.Var, n)
		if !e.Pos {
			v = v.Not()
		}
		return v
	case ExprAnd:
		t := tt.Const(n, true)
		for _, a := range e.Args {
			t = t.And(a.TT(n))
		}
		return t
	case ExprOr:
		t := tt.Const(n, false)
		for _, a := range e.Args {
			t = t.Or(a.TT(n))
		}
		return t
	}
	panic("sop: invalid expression kind")
}

func (e *Expr) String() string {
	switch e.Kind {
	case ExprConst0:
		return "0"
	case ExprConst1:
		return "1"
	case ExprLit:
		if e.Pos {
			return fmt.Sprintf("x%d", e.Var)
		}
		return fmt.Sprintf("!x%d", e.Var)
	case ExprAnd:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, " & ") + ")"
	case ExprOr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, " | ") + ")"
	}
	return "?"
}

func lit(v int, pos bool) *Expr { return &Expr{Kind: ExprLit, Var: v, Pos: pos} }

func mkAnd(args ...*Expr) *Expr {
	var flat []*Expr
	for _, a := range args {
		switch a.Kind {
		case ExprConst1:
		case ExprConst0:
			return &Expr{Kind: ExprConst0}
		case ExprAnd:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return &Expr{Kind: ExprConst1}
	case 1:
		return flat[0]
	}
	return &Expr{Kind: ExprAnd, Args: flat}
}

func mkOr(args ...*Expr) *Expr {
	var flat []*Expr
	for _, a := range args {
		switch a.Kind {
		case ExprConst0:
		case ExprConst1:
			return &Expr{Kind: ExprConst1}
		case ExprOr:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return &Expr{Kind: ExprConst0}
	case 1:
		return flat[0]
	}
	return &Expr{Kind: ExprOr, Args: flat}
}

func cubeExpr(c tt.Cube, nvars int) *Expr {
	var lits []*Expr
	for v := 0; v < nvars; v++ {
		if c.HasVar(v) {
			lits = append(lits, lit(v, c.Phase(v)))
		}
	}
	return mkAnd(lits...)
}

// Factor converts the cover into a factored form using kernel-based
// "good factor" with a quick-factor fallback, in the style of MIS/SIS.
// Its kernel searches share one kernelFinder.
func Factor(c Cover) *Expr {
	var kf kernelFinder
	return kf.factor(c)
}

// factor is Factor. It copies c before its first kernel search, so c may
// be a kernel living in the arena.
func (kf *kernelFinder) factor(c Cover) *Expr {
	if len(c.Cubes) == 0 {
		return &Expr{Kind: ExprConst0}
	}
	for _, cube := range c.Cubes {
		if cube.Mask == 0 {
			return &Expr{Kind: ExprConst1} // tautology cube absorbs all
		}
	}
	if len(c.Cubes) == 1 {
		return cubeExpr(c.Cubes[0], c.NumVars)
	}
	// Pull out the common cube first.
	free, cc := c.MakeCubeFree()
	var prefix *Expr = &Expr{Kind: ExprConst1}
	if cc.Mask != 0 {
		prefix = cubeExpr(cc, c.NumVars)
	}
	body := kf.factorCubeFree(free)
	return mkAnd(prefix, body)
}

// factorCubeFree factors a cube-free cover with at least two cubes.
func (kf *kernelFinder) factorCubeFree(c Cover) *Expr {
	if len(c.Cubes) == 1 {
		return cubeExpr(c.Cubes[0], c.NumVars)
	}
	if len(c.Cubes) == 0 {
		return &Expr{Kind: ExprConst0}
	}
	if d, ok := kf.bestDivisor(c); ok {
		quot, rem := c.Divide(d)
		if len(quot.Cubes) > 0 && len(quot.Cubes)*len(d.Cubes) > len(quot.Cubes)+len(d.Cubes)-1 {
			return mkOr(mkAnd(kf.factor(d), kf.factor(quot)), kf.factor(rem))
		}
	}
	// Quick factor: divide by the most frequent literal.
	if l, ok := c.bestLiteral(); ok {
		quot, rem := c.DivideByLiteral(l.variable(), l.positive())
		if len(quot.Cubes) > 0 {
			return mkOr(mkAnd(lit(l.variable(), l.positive()), kf.factor(quot)), kf.factor(rem))
		}
	}
	// No sharing at all: plain OR of cubes.
	args := make([]*Expr, len(c.Cubes))
	for i, cube := range c.Cubes {
		args[i] = cubeExpr(cube, c.NumVars)
	}
	return mkOr(args...)
}

// maxKernels is how many kernels, the first in Kernels' order, compete
// as divisors.
const maxKernels = 64

// bestDivisor picks the kernel giving the best literal savings when used
// as a divisor. Kernels identical to the whole cover are skipped
// (dividing by them makes no progress). A kernel is scored by counting
// the literals of its quotient and remainder, which are not built: the
// remainder is the cubes of c missing from the sorted quotient×kernel
// products. The divisor lives in the arena.
func (kf *kernelFinder) bestDivisor(c Cover) (Cover, bool) {
	kernels := kf.search(c, maxKernels)
	bestGain := 0
	var best Cover
	found := false
	selfKey := coverFingerprint(tt.Cube{}, c)
	lits := c.NumLits()
	var buf [64]tt.Cube
	for _, k := range kernels {
		if len(k.Cover.Cubes) == len(c.Cubes) && k.fp == selfKey {
			continue
		}
		quot := c.quotient(k.Cover.Cubes, buf[:0])
		if len(quot) == 0 {
			continue
		}
		// Literal savings of writing c = D*Q + R instead of flat.
		cost := k.Cover.NumLits()
		for _, q := range quot {
			cost += q.NumLits()
		}
		kf.keys = productKeys(quot, k.Cover.Cubes, kf.keys[:0])
		for _, cube := range c.Cubes {
			if _, ok := slices.BinarySearch(kf.keys, cubeKey(cube)); !ok {
				cost += cube.NumLits()
			}
		}
		if gain := lits - cost; gain > bestGain {
			bestGain, best, found = gain, k.Cover, true
		}
	}
	return best, found
}
