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
	used := usedBits(g.NumPIs())
	refs := g.RefCounts()
	decisions := make(map[int]decision)

	// Global hash index for 0-resub: table hash -> node ids (ascending).
	hashIndex := make(map[uint64][]int, g.NumObjs())
	hashes := make([]uint64, g.NumObjs())
	notHashes := make([]uint64, g.NumObjs())
	for id := 0; id < g.NumObjs(); id++ {
		hashes[id] = ttHash(tabs[id], 0)
		notHashes[id] = ttHash(tabs[id], used)
		hashIndex[hashes[id]] = append(hashIndex[hashes[id]], id)
	}

	maxDiv := opts.maxDivisors()
	depth := opts.depth()
	supp := structuralSupport(g)
	var divs []int
	var andList, orList []aig.Lit

	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			continue
		}
		target := tabs[id]
		mffc := g.MFFCSize(id, refs)

		// --- 0-resub: an existing node already computes the function.
		if dec, ok := findZeroResub(id, target, used, hashes, notHashes, hashIndex, tabs); ok {
			decisions[id] = dec
			continue
		}
		if mffc < 2 && !opts.ZeroCost {
			continue
		}
		if depth < 1 {
			continue
		}

		divs = collectDivisors(id, supp, maxDiv, divs[:0])
		andList, orList = candidateLists(target, used, divs, tabs, andList[:0], orList[:0])

		// --- 1-resub: one fresh gate over two divisors (XOR costs 3
		// AND nodes in an AIG and is gated accordingly).
		minGain := 1
		if opts.ZeroCost {
			minGain = 0
		}
		if mffc-1 >= minGain {
			if dec, cost, ok := findOneResub(target, used, divs, andList, orList, tabs, hashes); ok && mffc-cost >= minGain {
				decisions[id] = dec
				continue
			}
		}
		// --- 2-resub: AND3 / OR3 shapes (two fresh gates).
		if depth >= 2 && mffc-2 >= minGain {
			if dec, ok := findTripleResub(target, used, andList, orList, tabs); ok {
				decisions[id] = dec
			}
		}
	}
	return keepSmaller(g, rebuild(g, decisions))
}

// The matchers below read the words of the SimAll tables in place and
// build no table: a complement is a word XORed with the table's used
// bits (usedBits), which is what tt's Not computes.

// usedBits returns the bits a table over n variables uses in each word:
// all of them from 6 variables on, the low 2^n below.
func usedBits(n int) uint64 { return tt.Const(n, true).Word(0) }

// ttHash hashes t's words (FNV-1a), each XORed with flip: t's own hash
// for flip 0, its complement's for flip the used bits.
func ttHash(t tt.TT, flip uint64) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < t.NumWords(); i++ {
		h ^= t.Word(i) ^ flip
		h *= 1099511628211
	}
	return h
}

// xorHash is ttHash(a XOR b, 0).
func xorHash(a, b tt.TT) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < a.NumWords(); i++ {
		h ^= a.Word(i) ^ b.Word(i)
		h *= 1099511628211
	}
	return h
}

// isNot reports whether t is the complement of u.
func isNot(t, u tt.TT, used uint64) bool {
	for i := 0; i < t.NumWords(); i++ {
		if t.Word(i) != u.Word(i)^used {
			return false
		}
	}
	return true
}

// isXor reports whether t is a XOR b.
func isXor(t, a, b tt.TT) bool {
	for i := 0; i < t.NumWords(); i++ {
		if t.Word(i) != a.Word(i)^b.Word(i) {
			return false
		}
	}
	return true
}

func findZeroResub(id int, target tt.TT, used uint64, hashes, notHashes []uint64, index map[uint64][]int, tabs []tt.TT) (decision, bool) {
	for _, cand := range index[hashes[id]] {
		if cand >= id {
			break
		}
		if tabs[cand].Equal(target) {
			return gateDecision(litShape, aig.MakeLit(cand, false)), true
		}
	}
	for _, cand := range index[notHashes[id]] {
		if cand >= id {
			break
		}
		if isNot(tabs[cand], target, used) {
			return gateDecision(litShape, aig.MakeLit(cand, true)), true
		}
	}
	if target.IsConst0() {
		return gateDecision(litShape, aig.LitFalse), true
	}
	if target.IsConst1() {
		return gateDecision(litShape, aig.LitTrue), true
	}
	return decision{}, false
}

// word returns word i of the table of divisor literal d, complemented
// when d is.
func word(tabs []tt.TT, d aig.Lit, i int, used uint64) uint64 {
	w := tabs[d.Node()].Word(i)
	if d.IsCompl() {
		w ^= used
	}
	return w
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

// collectDivisors appends to divs up to max divisor nodes for the
// target: earlier-id nodes (outside the TFO by topological order) whose
// support is a subset of the target's, most recent first for locality.
func collectDivisors(id int, supp []uint32, max int, divs []int) []int {
	targetSupp := supp[id]
	for cand := id - 1; cand > 0 && len(divs) < max; cand-- {
		if supp[cand]&^targetSupp == 0 && supp[cand] != 0 {
			divs = append(divs, cand)
		}
	}
	return divs
}

// findOneResub searches for target == op(d1, d2) over AND/OR (with
// polarities, from the candidate lists) and XOR (over divs, matched by
// the per-node table hashes first), returning the decision and its cost
// in fresh AND nodes (1 for AND/OR, 3 for XOR).
func findOneResub(target tt.TT, used uint64, divs []int, andList, orList []aig.Lit, tabs []tt.TT, hashes []uint64) (decision, int, bool) {
	if dec, ok := matchPairs(target, used, andList, tabs, true); ok {
		return dec, 1, true
	}
	if dec, ok := matchPairs(target, used, orList, tabs, false); ok {
		return dec, 1, true
	}
	for _, d1 := range divs {
		h := xorHash(tabs[d1], target)
		for _, d2 := range divs {
			if hashes[d2] == h && d2 != d1 && isXor(tabs[d2], tabs[d1], target) {
				return gateDecision(xorShape, aig.MakeLit(d1, false), aig.MakeLit(d2, false)), 3, true
			}
		}
	}
	return decision{}, 0, false
}

// candidateLists filters the divisor literals for AND and OR shapes,
// appending to andList the literals an AND of divisors implementing
// target may use, and to orList those an OR may use.
func candidateLists(target tt.TT, used uint64, divs []int, tabs []tt.TT, andList, orList []aig.Lit) ([]aig.Lit, []aig.Lit) {
	for _, d := range divs {
		t := tabs[d]
		// The bits of target t lacks, of t target lacks, and of neither.
		var targetOnly, tOnly, neither uint64
		for i := 0; i < t.NumWords(); i++ {
			a, b := target.Word(i), t.Word(i)
			targetOnly |= a &^ b
			tOnly |= b &^ a
			neither |= ^(a | b) & used
		}
		if targetOnly == 0 { // target ⊆ t
			andList = append(andList, aig.MakeLit(d, false))
		}
		// This admits ~t when t ⊆ target, where an AND operand needs
		// target ⊆ ~t. Matches are verified, so it costs only search
		// quality; the recorded results depend on it as written.
		if tOnly == 0 {
			andList = append(andList, aig.MakeLit(d, true))
		}
		if tOnly == 0 { // t ⊆ target
			orList = append(orList, aig.MakeLit(d, false))
		}
		if neither == 0 { // ~t ⊆ target
			orList = append(orList, aig.MakeLit(d, true))
		}
	}
	return andList, orList
}

// gate returns a AND b when isAnd, a OR b otherwise.
func gate(isAnd bool, a, b uint64) uint64 {
	if isAnd {
		return a & b
	}
	return a | b
}

// combines reports whether the gate over the divisors' tables equals
// target. Callers compare the first words themselves, which rules out
// most candidates, so it starts at the second.
func combines(target tt.TT, used uint64, tabs []tt.TT, isAnd bool, ds ...aig.Lit) bool {
	for i := 1; i < target.NumWords(); i++ {
		w := word(tabs, ds[0], i, used)
		for _, d := range ds[1:] {
			w = gate(isAnd, w, word(tabs, d, i, used))
		}
		if w != target.Word(i) {
			return false
		}
	}
	return true
}

// matchPairs finds d1 op d2 == target within a pre-filtered literal list.
func matchPairs(target tt.TT, used uint64, list []aig.Lit, tabs []tt.TT, isAnd bool) (decision, bool) {
	const capPairs = 60
	if len(list) > capPairs {
		list = list[:capPairs]
	}
	shape := orShape
	if isAnd {
		shape = andShape
	}
	t0 := target.Word(0)
	for i := 0; i < len(list); i++ {
		wi := word(tabs, list[i], 0, used)
		for j := i + 1; j < len(list); j++ {
			if list[i].Node() == list[j].Node() {
				continue
			}
			if gate(isAnd, wi, word(tabs, list[j], 0, used)) == t0 && combines(target, used, tabs, isAnd, list[i], list[j]) {
				return gateDecision(shape, list[i], list[j]), true
			}
		}
	}
	return decision{}, false
}

// findTripleResub searches AND3 / OR3 shapes over the candidate lists.
func findTripleResub(target tt.TT, used uint64, andList, orList []aig.Lit, tabs []tt.TT) (decision, bool) {
	const capTriples = 24
	if len(andList) > capTriples {
		andList = andList[:capTriples]
	}
	if len(orList) > capTriples {
		orList = orList[:capTriples]
	}
	if dec, ok := matchTriples(target, used, andList, tabs, true); ok {
		return dec, true
	}
	return matchTriples(target, used, orList, tabs, false)
}

func matchTriples(target tt.TT, used uint64, list []aig.Lit, tabs []tt.TT, isAnd bool) (decision, bool) {
	shape := or3Shape
	if isAnd {
		shape = and3Shape
	}
	t0 := target.Word(0)
	for i := 0; i < len(list); i++ {
		wi := word(tabs, list[i], 0, used)
		for j := i + 1; j < len(list); j++ {
			if list[i].Node() == list[j].Node() {
				continue
			}
			wij := gate(isAnd, wi, word(tabs, list[j], 0, used))
			for k := j + 1; k < len(list); k++ {
				if list[j].Node() == list[k].Node() || list[i].Node() == list[k].Node() {
					continue
				}
				if gate(isAnd, wij, word(tabs, list[k], 0, used)) == t0 && combines(target, used, tabs, isAnd, list[i], list[j], list[k]) {
					return gateDecision(shape, list[i], list[j], list[k]), true
				}
			}
		}
	}
	return decision{}, false
}
