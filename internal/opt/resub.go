package opt

import (
	"repro/internal/aig"
	"repro/internal/tt"
)

// ResubOptions tunes simulation-guided resubstitution.
type ResubOptions struct {
	// MaxDivisors caps the divisor candidates considered per node
	// (default 80; most recent nodes first for locality).
	MaxDivisors int
	// Depth selects the resubstitution depth: 0 = replace by an existing
	// literal only, 1 = one new gate over two divisors, 2 = additionally
	// try three-divisor AND3/OR3 shapes. Default 2.
	Depth int
	// ZeroCost also commits zero-gain substitutions.
	ZeroCost bool
}

func (o ResubOptions) maxDivisors() int {
	if o.MaxDivisors <= 0 {
		return 80
	}
	return o.MaxDivisors
}

func (o ResubOptions) depth() int {
	if o.Depth <= 0 {
		return 2
	}
	return o.Depth
}

// ResubOnce performs one simulation-guided resubstitution pass. Every
// node carries its complete truth table over the primary inputs (the
// paper's ref [10] paradigm made exact: benchmark functions are small
// enough for exhaustive signatures). A node is re-expressed through
// divisors — earlier nodes in topological order, which are guaranteed to
// lie outside its transitive fanout — when the substitution frees more
// MFFC nodes than it adds.
//
// Graphs with more than tt.MaxVars inputs are returned unchanged: exact
// signatures are unavailable and this implementation deliberately avoids
// unsound approximate matching.
func ResubOnce(g *aig.AIG, opts ResubOptions) *aig.AIG {
	if g.NumPIs() > tt.MaxVars {
		return g
	}
	tabs := g.SimAll()
	refs := g.RefCounts()
	decisions := make(map[int]decision)

	// Global hash index for 0-resub: table hash -> node ids (ascending).
	hashIndex := make(map[uint64][]int, g.NumObjs())
	hashes := make([]uint64, g.NumObjs())
	notHashes := make([]uint64, g.NumObjs())
	for id := 0; id < g.NumObjs(); id++ {
		hashes[id] = ttHash(tabs[id])
		notHashes[id] = ttHash(tabs[id].Not())
		hashIndex[hashes[id]] = append(hashIndex[hashes[id]], id)
	}

	maxDiv := opts.maxDivisors()
	depth := opts.depth()
	supp := structuralSupport(g)

	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			continue
		}
		target := tabs[id]
		mffc := g.MFFCSize(id, refs)

		// --- 0-resub: an existing node already computes the function.
		if dec, ok := findZeroResub(g, id, target, hashes, notHashes, hashIndex, tabs); ok {
			decisions[id] = dec
			continue
		}
		if mffc < 2 && !opts.ZeroCost {
			continue
		}
		if depth < 1 {
			continue
		}

		divs := collectDivisors(id, supp, maxDiv)

		// --- 1-resub: one fresh gate over two divisors (XOR costs 3
		// AND nodes in an AIG and is gated accordingly).
		minGain := 1
		if opts.ZeroCost {
			minGain = 0
		}
		if mffc-1 >= minGain {
			if dec, cost, ok := findOneResub(target, divs, tabs); ok && mffc-cost >= minGain {
				decisions[id] = dec
				continue
			}
		}
		// --- 2-resub: AND3 / OR3 shapes (two fresh gates).
		if depth >= 2 && mffc-2 >= minGain {
			if dec, ok := findTripleResub(target, divs, tabs); ok {
				decisions[id] = dec
			}
		}
	}
	return keepSmaller(g, rebuild(g, decisions), true)
}

// Resub iterates resubstitution passes to convergence.
func Resub(g *aig.AIG, opts ResubOptions) *aig.AIG {
	cur := g
	for i := 0; i < 8; i++ {
		next := ResubOnce(cur, opts)
		if next.NumAnds() >= cur.NumAnds() {
			return keepSmaller(cur, next, opts.ZeroCost)
		}
		cur = next
	}
	return cur
}

func ttHash(t tt.TT) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range t.Words() {
		h ^= w
		h *= 1099511628211
	}
	return h
}

func findZeroResub(g *aig.AIG, id int, target tt.TT, hashes, notHashes []uint64, index map[uint64][]int, tabs []tt.TT) (decision, bool) {
	for _, cand := range index[hashes[id]] {
		if cand >= id {
			break
		}
		if tabs[cand].Equal(target) {
			return litDecision(cand, false), true
		}
	}
	for _, cand := range index[notHashes[id]] {
		if cand >= id {
			break
		}
		if tabs[cand].Equal(target.Not()) {
			return litDecision(cand, true), true
		}
	}
	if target.IsConst0() {
		return constDecision(false), true
	}
	if target.IsConst1() {
		return constDecision(true), true
	}
	return decision{}, false
}

// divisor is a candidate node with a chosen polarity.
type divisor struct {
	node  int
	compl bool
}

// structuralSupport computes per-node PI-support bitmasks by fanin union
// (a superset of functional support, cheap and good enough for divisor
// filtering). Inputs are <= 16 by SimAll's precondition.
func structuralSupport(g *aig.AIG) []uint32 {
	supp := make([]uint32, g.NumObjs())
	for i := 1; i <= g.NumPIs(); i++ {
		supp[i] = 1 << uint(i-1)
	}
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.Fanins(id)
		supp[id] = supp[f0.Node()] | supp[f1.Node()]
	}
	return supp
}

// collectDivisors gathers up to max divisor nodes for the target:
// earlier-id nodes (outside the TFO by topological order) whose support
// is a subset of the target's, most recent first for locality.
func collectDivisors(id int, supp []uint32, max int) []int {
	targetSupp := supp[id]
	var divs []int
	for cand := id - 1; cand > 0 && len(divs) < max; cand-- {
		if supp[cand]&^targetSupp == 0 && supp[cand] != 0 {
			divs = append(divs, cand)
		}
	}
	return divs
}

// findOneResub searches for target == op(d1, d2) over AND/OR (with
// polarities) and XOR, returning the decision and its cost in fresh AND
// nodes (1 for AND/OR, 3 for XOR).
func findOneResub(target tt.TT, divs []int, tabs []tt.TT) (decision, int, bool) {
	notTarget := target.Not()
	// AND candidates: divisor literals whose function covers the target.
	var andList []divisor
	// OR candidates: divisor literals covered by the target.
	var orList []divisor
	for _, d := range divs {
		t := tabs[d]
		if target.AndNot(t).IsConst0() {
			andList = append(andList, divisor{d, false})
		}
		if notTarget.AndNot(t.Not()).IsConst0() { // target ⊆ ~t
			andList = append(andList, divisor{d, true})
		}
		if t.AndNot(target).IsConst0() {
			orList = append(orList, divisor{d, false})
		}
		if t.Not().AndNot(target).IsConst0() {
			orList = append(orList, divisor{d, true})
		}
	}
	if dec, ok := matchPairs(target, andList, tabs, true); ok {
		return dec, 1, true
	}
	if dec, ok := matchPairs(target, orList, tabs, false); ok {
		return dec, 1, true
	}
	// XOR: hash map from divisor table to literal.
	xorIndex := make(map[uint64][]int, len(divs))
	for _, d := range divs {
		xorIndex[ttHash(tabs[d])] = append(xorIndex[ttHash(tabs[d])], d)
	}
	for _, d1 := range divs {
		want := tabs[d1].Xor(target)
		for _, d2 := range xorIndex[ttHash(want)] {
			if d2 == d1 {
				continue
			}
			if tabs[d2].Equal(want) {
				return gateDecision(gateXor, divisor{d1, false}, divisor{d2, false}), 3, true
			}
		}
	}
	return decision{}, 0, false
}

// matchPairs finds d1 op d2 == target within a pre-filtered literal list.
func matchPairs(target tt.TT, list []divisor, tabs []tt.TT, isAnd bool) (decision, bool) {
	const capPairs = 60
	if len(list) > capPairs {
		list = list[:capPairs]
	}
	for i := 0; i < len(list); i++ {
		ti := divTT(tabs, list[i])
		for j := i + 1; j < len(list); j++ {
			if list[i].node == list[j].node {
				continue
			}
			tj := divTT(tabs, list[j])
			var combined tt.TT
			if isAnd {
				combined = ti.And(tj)
			} else {
				combined = ti.Or(tj)
			}
			if combined.Equal(target) {
				if isAnd {
					return gateDecision(gateAnd, list[i], list[j]), true
				}
				return gateDecision(gateOr, list[i], list[j]), true
			}
		}
	}
	return decision{}, false
}

// findTripleResub searches AND3 / OR3 shapes over the filtered lists.
func findTripleResub(target tt.TT, divs []int, tabs []tt.TT) (decision, bool) {
	notTarget := target.Not()
	var andList, orList []divisor
	for _, d := range divs {
		t := tabs[d]
		if target.AndNot(t).IsConst0() {
			andList = append(andList, divisor{d, false})
		}
		if notTarget.AndNot(t.Not()).IsConst0() {
			andList = append(andList, divisor{d, true})
		}
		if t.AndNot(target).IsConst0() {
			orList = append(orList, divisor{d, false})
		}
		if t.Not().AndNot(target).IsConst0() {
			orList = append(orList, divisor{d, true})
		}
	}
	const capTriples = 24
	if len(andList) > capTriples {
		andList = andList[:capTriples]
	}
	if len(orList) > capTriples {
		orList = orList[:capTriples]
	}
	if dec, ok := matchTriples(target, andList, tabs, true); ok {
		return dec, true
	}
	return matchTriples(target, orList, tabs, false)
}

func matchTriples(target tt.TT, list []divisor, tabs []tt.TT, isAnd bool) (decision, bool) {
	for i := 0; i < len(list); i++ {
		ti := divTT(tabs, list[i])
		for j := i + 1; j < len(list); j++ {
			tj := divTT(tabs, list[j])
			var tij tt.TT
			if isAnd {
				tij = ti.And(tj)
			} else {
				tij = ti.Or(tj)
			}
			for k := j + 1; k < len(list); k++ {
				if list[i].node == list[j].node || list[j].node == list[k].node || list[i].node == list[k].node {
					continue
				}
				tk := divTT(tabs, list[k])
				var combined tt.TT
				if isAnd {
					combined = tij.And(tk)
				} else {
					combined = tij.Or(tk)
				}
				if combined.Equal(target) {
					kind := gateAnd3
					if !isAnd {
						kind = gateOr3
					}
					return gateDecision3(kind, list[i], list[j], list[k]), true
				}
			}
		}
	}
	return decision{}, false
}

func divTT(tabs []tt.TT, d divisor) tt.TT {
	if d.compl {
		return tabs[d.node].Not()
	}
	return tabs[d.node]
}

type gateKind int

const (
	gateAnd gateKind = iota
	gateOr
	gateXor
	gateAnd3
	gateOr3
)

// gateDecision builds the mini structure target = op(d1, d2).
func gateDecision(kind gateKind, d1, d2 divisor) decision {
	mini := aig.New(2)
	a := mini.PI(0).NotCond(d1.compl)
	b := mini.PI(1).NotCond(d2.compl)
	var out aig.Lit
	switch kind {
	case gateAnd:
		out = mini.And(a, b)
	case gateOr:
		out = mini.Or(a, b)
	case gateXor:
		out = mini.Xor(a, b)
	default:
		panic("opt: bad binary gate kind")
	}
	mini.AddPO(out)
	return decision{mini: mini, leaves: []int{d1.node, d2.node}}
}

func gateDecision3(kind gateKind, d1, d2, d3 divisor) decision {
	mini := aig.New(3)
	a := mini.PI(0).NotCond(d1.compl)
	b := mini.PI(1).NotCond(d2.compl)
	c := mini.PI(2).NotCond(d3.compl)
	var out aig.Lit
	switch kind {
	case gateAnd3:
		out = mini.And(mini.And(a, b), c)
	case gateOr3:
		out = mini.Or(mini.Or(a, b), c)
	default:
		panic("opt: bad ternary gate kind")
	}
	mini.AddPO(out)
	return decision{mini: mini, leaves: []int{d1.node, d2.node, d3.node}}
}
