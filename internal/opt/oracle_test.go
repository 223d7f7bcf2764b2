package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// The oracles below are the resub matchers that read the words of the
// SimAll tables replaced: they build a Not, And, Or or Xor table for
// every candidate they try. The production matchers must answer exactly
// as they do.

func ttHashOracle(t tt.TT) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < t.NumWords(); i++ {
		h ^= t.Word(i)
		h *= 1099511628211
	}
	return h
}

func findZeroResubOracle(id int, target tt.TT, hashes, notHashes []uint64, index map[uint64][]int, tabs []tt.TT) (decision, bool) {
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
		if tabs[cand].Equal(target.Not()) {
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

func candidateListsOracle(target tt.TT, divs []int, tabs []tt.TT) (andList, orList []aig.Lit) {
	notTarget := target.Not()
	for _, d := range divs {
		t := tabs[d]
		if target.AndNot(t).IsConst0() {
			andList = append(andList, aig.MakeLit(d, false))
		}
		if notTarget.AndNot(t.Not()).IsConst0() {
			andList = append(andList, aig.MakeLit(d, true))
		}
		if t.AndNot(target).IsConst0() {
			orList = append(orList, aig.MakeLit(d, false))
		}
		if t.Not().AndNot(target).IsConst0() {
			orList = append(orList, aig.MakeLit(d, true))
		}
	}
	return andList, orList
}

func matchPairsOracle(target tt.TT, list []aig.Lit, tabs []tt.TT, isAnd bool) (decision, bool) {
	if len(list) > 60 {
		list = list[:60]
	}
	for i := 0; i < len(list); i++ {
		ti := aig.LitTT(tabs, list[i])
		for j := i + 1; j < len(list); j++ {
			if list[i].Node() == list[j].Node() {
				continue
			}
			tj := aig.LitTT(tabs, list[j])
			var combined tt.TT
			if isAnd {
				combined = ti.And(tj)
			} else {
				combined = ti.Or(tj)
			}
			if combined.Equal(target) {
				if isAnd {
					return gateDecision(andShape, list[i], list[j]), true
				}
				return gateDecision(orShape, list[i], list[j]), true
			}
		}
	}
	return decision{}, false
}

func xorSearchOracle(target tt.TT, divs []int, tabs []tt.TT, hashes []uint64) (decision, bool) {
	for _, d1 := range divs {
		want := tabs[d1].Xor(target)
		h := ttHashOracle(want)
		for _, d2 := range divs {
			if hashes[d2] == h && d2 != d1 && tabs[d2].Equal(want) {
				return gateDecision(xorShape, aig.MakeLit(d1, false), aig.MakeLit(d2, false)), true
			}
		}
	}
	return decision{}, false
}

func matchTriplesOracle(target tt.TT, list []aig.Lit, tabs []tt.TT, isAnd bool) (decision, bool) {
	for i := 0; i < len(list); i++ {
		ti := aig.LitTT(tabs, list[i])
		for j := i + 1; j < len(list); j++ {
			tj := aig.LitTT(tabs, list[j])
			var tij tt.TT
			if isAnd {
				tij = ti.And(tj)
			} else {
				tij = ti.Or(tj)
			}
			for k := j + 1; k < len(list); k++ {
				if list[i].Node() == list[j].Node() || list[j].Node() == list[k].Node() || list[i].Node() == list[k].Node() {
					continue
				}
				tk := aig.LitTT(tabs, list[k])
				var combined tt.TT
				if isAnd {
					combined = tij.And(tk)
				} else {
					combined = tij.Or(tk)
				}
				if combined.Equal(target) {
					if isAnd {
						return gateDecision(and3Shape, list[i], list[j], list[k]), true
					}
					return gateDecision(or3Shape, list[i], list[j], list[k]), true
				}
			}
		}
	}
	return decision{}, false
}

// sameDecision reports whether two decisions splice in the same shared
// structure over the same leaves.
func sameDecision(a, b decision) bool {
	return a.mini == b.mini && slices.Equal(a.leaves, b.leaves)
}

// oracleAIGs returns AIGs of 3 to 10 inputs: SOP and factored syntheses
// of random functions, which leave functional duplicates and divisors
// to find, and random AND networks. Graphs under 6 inputs exercise the
// complement's mask.
func oracleAIGs(r *rand.Rand) []*aig.AIG {
	var gs []*aig.AIG
	for n := 3; n <= 10; n++ {
		// A sparse function keeps the SOP of 9 and 10 inputs small.
		f := tt.Random(n, r).And(tt.Random(n, r)).And(tt.Random(n, r))
		if n <= 7 {
			f = tt.Random(n, r)
		}
		gs = append(gs, synth.SynthSOP([]tt.TT{f, tt.Random(n, r).And(tt.Random(n, r))}))
		gs = append(gs, synth.SynthFactored([]tt.TT{f}))
		g := aig.New(n)
		var lits []aig.Lit
		for i := 0; i < n; i++ {
			lits = append(lits, g.PI(i))
		}
		for len(lits) < n+60 {
			a := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 1)
			b := lits[r.Intn(len(lits))].NotCond(r.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		for i := 1; i <= 3; i++ {
			g.AddPO(lits[len(lits)-i])
		}
		gs = append(gs, g)
	}
	return gs
}

// TestResubMatchersMatchOracles compares candidate lists, pair, triple
// and XOR matches, complement hashes and 0-resub on every node of the
// oracle AIGs.
func TestResubMatchersMatchOracles(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for gi, g := range oracleAIGs(r) {
		tabs := g.SimAll()
		used := usedBits(g.NumPIs())
		index := make(map[uint64][]int)
		hashes := make([]uint64, g.NumObjs())
		notHashes := make([]uint64, g.NumObjs())
		for id := range tabs {
			hashes[id] = ttHash(tabs[id], 0)
			notHashes[id] = ttHash(tabs[id], used)
			if hashes[id] != ttHashOracle(tabs[id]) || notHashes[id] != ttHashOracle(tabs[id].Not()) {
				t.Fatalf("graph %d (%d inputs) node %d: hashes %x %x, oracle %x %x", gi, g.NumPIs(), id,
					hashes[id], notHashes[id], ttHashOracle(tabs[id]), ttHashOracle(tabs[id].Not()))
			}
			index[hashes[id]] = append(index[hashes[id]], id)
		}
		supp := structuralSupport(g)
		var divs []int
		var andList, orList []aig.Lit
		for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
			target := tabs[id]
			where := func(what string) string {
				return fmt.Sprintf("graph %d (%d inputs) node %d: %s", gi, g.NumPIs(), id, what)
			}
			dec, ok := findZeroResub(id, target, used, hashes, notHashes, index, tabs)
			if wdec, wok := findZeroResubOracle(id, target, hashes, notHashes, index, tabs); ok != wok || !sameDecision(dec, wdec) {
				t.Fatal(where("0-resub differs from the oracle"))
			}
			divs = collectDivisors(id, supp, 80, divs[:0])
			andList, orList = candidateLists(target, used, divs, tabs, andList[:0], orList[:0])
			wantAnd, wantOr := candidateListsOracle(target, divs, tabs)
			if !slices.Equal(andList, wantAnd) || !slices.Equal(orList, wantOr) {
				t.Fatal(where(fmt.Sprintf("candidate lists %v %v, oracle %v %v", andList, orList, wantAnd, wantOr)))
			}
			for _, isAnd := range []bool{true, false} {
				list := orList
				if isAnd {
					list = andList
				}
				dec, ok := matchPairs(target, used, list, tabs, isAnd)
				if wdec, wok := matchPairsOracle(target, list, tabs, isAnd); ok != wok || !sameDecision(dec, wdec) {
					t.Fatal(where("pair match differs from the oracle"))
				}
				if len(list) > 24 {
					list = list[:24]
				}
				dec, ok = matchTriples(target, used, list, tabs, isAnd)
				if wdec, wok := matchTriplesOracle(target, list, tabs, isAnd); ok != wok || !sameDecision(dec, wdec) {
					t.Fatal(where("triple match differs from the oracle"))
				}
			}
			// The XOR search alone: the AND and OR lists are left empty.
			dec, cost, ok := findOneResub(target, used, divs, nil, nil, tabs, hashes)
			if wdec, wok := xorSearchOracle(target, divs, tabs, hashes); ok != wok || !sameDecision(dec, wdec) || (ok && cost != 3) {
				t.Fatal(where("XOR match differs from the oracle"))
			}
		}
	}
}
