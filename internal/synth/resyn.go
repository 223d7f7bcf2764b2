package synth

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/tt"
)

// BestStructure synthesizes a small single-output AIG for f over exactly
// f.NumVars() inputs, taking the best of the multi-paradigm recipes. It is
// the resynthesis engine behind rewriting, refactoring, and LUT mapping.
func BestStructure(f tt.TT) *aig.AIG {
	spec := []tt.TT{f}
	candidates := []*aig.AIG{
		SynthDSD(spec),
		SynthFactored(spec),
		SynthShannon(spec),
	}
	// Functions on at most 3 support variables get a provably
	// tree-optimal structure (sharing can, rarely, beat a tree, so the
	// heuristics still compete).
	if exact, ok := ExactStructure3(f); ok {
		candidates = append(candidates, exact)
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.NumAnds() < best.NumAnds() {
			best = c
		}
	}
	return best
}

// The structure caches. Each limit is fixed where its cache is declared;
// the measurements behind them come from the seed-2024 pipeline (53
// specs of at most 6 inputs, 7 recipes, 3 flows).
var (
	// exactStructures short-circuits LibraryStructure for functions seen
	// before: the wrapped structure is a function of the table alone, and
	// rewriting queries the same cut functions constantly. Its working
	// set is 3,111 functions; capped at 1,024 it cost 13% of pipeline
	// throughput, so 4,096 holds it whole.
	exactStructures = memo[[2]uint64, *aig.AIG]{limit: 4096}
	// npnClasses holds the best known structure of each NPN-canonical
	// function: 124 classes in the pipeline.
	npnClasses = memo[[2]uint64, *aig.AIG]{limit: 4096}
	// factoredStructures holds refactor's structures for a compacted cut
	// function and its complement in one entry, keyed by the smaller of
	// the two tables. The pipeline asks 87,837 times for 7,759 functions,
	// but reuse is local in time: at 1,024 entries a pass on one worker
	// makes 8,720 pair builds, where one entry per function made 9,868
	// builds of the same two SynthFactored calls, while an unbounded memo
	// raised pipeline peak RSS from about 36 to 55 MB. In the paper-scale
	// run 1,024 entries make about 145,000 pair builds and 512 about
	// 192,000; a full memo retains about 2.5 MB there.
	// The key holds tables of at most 10 variables. Refactor admits cones
	// of 11 leaves, as ReconvCut can overshoot its bound, but none of the
	// pipeline's 87,837 calls or the paper-scale run's 607,124 had more
	// than 10 variables; a wider table is built uncached.
	factoredStructures = memo[[17]uint64, [2]*aig.AIG]{limit: 1024}
	// lutStructures holds LUT resynthesis structures of 5 or 6 inputs:
	// 685 functions in the pipeline.
	lutStructures = memo[[2]uint64, *aig.AIG]{limit: 4096}
)

// LibraryStructure returns a small implementation of f (up to 6 inputs)
// via the NPN-canonical library: the canonical class is synthesized once
// and reused for every class member through the recorded transform.
// The returned AIG implements f itself (transform already applied to the
// output polarity and input order), over f.NumVars() inputs; input i of
// the result corresponds to variable i of f. It is shared: callers must
// only read it.
func LibraryStructure(f tt.TT) *aig.AIG {
	return exactStructures.get(wordKey(f), func() *aig.AIG {
		canon, xf := tt.NPNCanon(f)
		mini := npnClasses.get(wordKey(canon), func() *aig.AIG { return BestStructure(canon) })
		// Wrap the canonical structure with the inverse transform: feed
		// input i of the wrapper (variable i of f) into the canonical
		// input it maps to, and flip polarities as recorded.
		n := f.NumVars()
		g := aig.New(n)
		leaves := make([]aig.Lit, n)
		// Canonical variable i corresponds to original variable
		// xf.Perm[i], complemented when xf.Flips has that original
		// variable set.
		for i := 0; i < n; i++ {
			orig := xf.Perm[i]
			leaves[i] = g.PI(orig).NotCond(xf.Flips>>uint(orig)&1 == 1)
		}
		out := Instantiate(g, mini, leaves)
		g.AddPO(out.NotCond(xf.OutFlip))
		return g.Cleanup()
	})
}

// FactoredStructure returns a single-output AIG for f built from the
// smaller of the factored forms of f and its complement: the structure
// refactoring tries for a cut. It is memoized per complement pair on the
// exact table and shared: callers must only read it.
func FactoredStructure(f tt.TT) *aig.AIG {
	k, ok := tableKey(f)
	if !ok {
		return factoredPair(f)[0]
	}
	nf := f.Not()
	if nk, _ := tableKey(nf); slices.Compare(nk[:], k[:]) < 0 {
		return factoredStructures.get(nk, func() [2]*aig.AIG { return factoredPair(nf) })[1]
	}
	return factoredStructures.get(k, func() [2]*aig.AIG { return factoredPair(f) })[0]
}

// factoredPair returns FactoredStructure's answers for f and for ¬f from
// one SynthFactored build per polarity. Each answer takes the other
// polarity's form, output complemented, only when it is strictly smaller.
func factoredPair(f tt.TT) [2]*aig.AIG {
	pos, neg := SynthFactored([]tt.TT{f}), SynthFactored([]tt.TT{f.Not()})
	pick := func(own, other *aig.AIG) *aig.AIG {
		if other.NumAnds() >= own.NumAnds() {
			return own
		}
		c := other.Clone()
		c.SetPO(0, c.PO(0).Not())
		return c
	}
	return [2]*aig.AIG{pick(pos, neg), pick(neg, pos)}
}

// LUTStructure returns the structure LUT resynthesis instantiates for f
// (up to 6 inputs, the widest LUT the mapper builds): the NPN library's
// at 4 inputs or fewer, else the best of the multi-paradigm recipes,
// memoized. It is shared: callers must only read it.
func LUTStructure(f tt.TT) *aig.AIG {
	if f.NumVars() <= 4 {
		return LibraryStructure(f)
	}
	return lutStructures.get(wordKey(f), func() *aig.AIG { return BestStructure(f) })
}

// Instantiate copies the single-output mini AIG into dst, substituting
// leaves for its primary inputs, and returns the output literal. A
// structure of up to 64 nodes is copied without touching the heap.
func Instantiate(dst *aig.AIG, mini *aig.AIG, leaves []aig.Lit) aig.Lit {
	if mini.NumPIs() != len(leaves) {
		panic("synth: Instantiate leaf count mismatch")
	}
	var buf [64]aig.Lit
	m := buf[:]
	if mini.NumObjs() > len(buf) {
		m = make([]aig.Lit, mini.NumObjs())
	}
	m[0] = aig.LitFalse
	for i := 0; i < mini.NumPIs(); i++ {
		m[i+1] = leaves[i]
	}
	for id := mini.NumPIs() + 1; id < mini.NumObjs(); id++ {
		f0, f1 := mini.Fanins(id)
		a := m[f0.Node()].NotCond(f0.IsCompl())
		b := m[f1.Node()].NotCond(f1.IsCompl())
		m[id] = dst.And(a, b)
	}
	po := mini.PO(0)
	return m[po.Node()].NotCond(po.IsCompl())
}

// InstantiateCostBlocked reports how many new AND nodes Instantiate
// would create in dst, without modifying dst: existing shared structure
// is free, except for the dst node ids in blocked — typically the MFFC
// about to be removed by the replacement whose cost is being estimated.
// Nodes that would be fresh are modeled with virtual ids beyond dst's
// range so that downstream lookups correctly miss while constant
// folding still applies. A structure of up to 64 nodes is costed
// without touching the heap.
func InstantiateCostBlocked(dst *aig.AIG, mini *aig.AIG, leaves []aig.Lit, blocked []int) int {
	if mini.NumPIs() != len(leaves) {
		panic("synth: InstantiateCostBlocked leaf count mismatch")
	}
	var buf [64]aig.Lit
	m := buf[:]
	if mini.NumObjs() > len(buf) {
		m = make([]aig.Lit, mini.NumObjs())
	}
	m[0] = aig.LitFalse
	for i := 0; i < mini.NumPIs(); i++ {
		m[i+1] = leaves[i]
	}
	nextVirtual := dst.NumObjs()
	cost := 0
	for id := mini.NumPIs() + 1; id < mini.NumObjs(); id++ {
		f0, f1 := mini.Fanins(id)
		a := m[f0.Node()].NotCond(f0.IsCompl())
		b := m[f1.Node()].NotCond(f1.IsCompl())
		if l, ok := dst.Lookup(a, b); ok && !slices.Contains(blocked, l.Node()) {
			m[id] = l
			continue
		}
		m[id] = aig.MakeLit(nextVirtual, false)
		nextVirtual++
		cost++
	}
	return cost
}
