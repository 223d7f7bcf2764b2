package gatenet

import (
	"math"
	"slices"

	"repro/internal/aig"
	"repro/internal/tt"
)

// cutLeaves bounds the reconvergence-driven cut of each rewritten cone.
const cutLeaves = 8

// Resynth chooses how a graph type re-implements a cone: given the
// cone's function over its cut leaves, it returns the gate count of its
// best implementation and a function that adds that implementation to a
// network over the leaf literals.
type Resynth func(f tt.TT) (cost int, build func(n *Net, leaves []aig.Lit) aig.Lit)

// replacement is a cone RewriteOnce re-implements over its cut.
type replacement struct {
	leaves []int
	build  func(n *Net, leaves []aig.Lit) aig.Lit
}

// RewriteOnce performs one cone-rewriting pass over n. Like the gate
// constructors, RewriteOnce is a function so that it is not promoted into
// the graph types, each of which supplies its own resyn. Every gate's
// reconvergence-driven cone (up to 8 leaves) is collapsed to its truth
// table and priced by resyn; a gate whose bounded fanout-free cone frees
// fewer than 2 gates is skipped, and a replacement is committed when the
// cone frees more gates than the replacement costs. A demand-driven
// rebuild drops the freed logic. The pass never grows the network.
func RewriteOnce(n *Net, resyn Resynth) *Net {
	refs := n.refCounts()
	repl := make(map[int]replacement)
	for id := n.numPIs + 1; id < n.NumObjs(); id++ {
		if refs[id] == 0 {
			continue
		}
		leaves := n.reconvCut(id, cutLeaves)
		if len(leaves) < 2 {
			continue
		}
		saved := n.mffcBounded(id, refs, leaves)
		if saved < 2 {
			continue
		}
		if cost, build := resyn(n.cutTT(id, leaves)); saved > cost {
			repl[id] = replacement{leaves, build}
		}
	}
	if len(repl) == 0 {
		return n
	}
	if ng := n.rebuild(repl); ng.NumGates() <= n.NumGates() {
		return ng
	}
	return n
}

// Rewrite iterates RewriteOnce to a fixpoint, at most 8 passes.
func Rewrite(n *Net, resyn Resynth) *Net {
	cur := n
	for i := 0; i < 8; i++ {
		next := RewriteOnce(cur, resyn)
		if next.NumGates() >= cur.NumGates() {
			return cur
		}
		cur = next
	}
	return cur
}

// refCounts returns every node's fanout count, outputs included.
func (n *Net) refCounts() []int {
	refs := make([]int, n.NumObjs())
	for id := n.numPIs + 1; id < n.NumObjs(); id++ {
		for _, f := range n.Fanins(id) {
			refs[f.Node()]++
		}
	}
	for _, po := range n.pos {
		refs[po.Node()]++
	}
	return refs
}

// reconvCut grows a reconvergence-driven cut of at most maxLeaves
// leaves, as aig.ReconvCut does: it repeatedly expands the leaf that
// adds the fewest new leaves. Constant fanins are always available and
// never become leaves. The leaves come back sorted.
func (n *Net) reconvCut(root, maxLeaves int) []int {
	leaves := []int{root}
	inCut := map[int]bool{root: true}
	visited := map[int]bool{root: true}
	cost := func(id int) int {
		if !n.IsGate(id) {
			return 1 << 30
		}
		c := 0
		for _, f := range n.Fanins(id) {
			if f.Node() != 0 && !visited[f.Node()] {
				c++
			}
		}
		return c
	}
	for {
		best, bestCost := -1, 1<<30
		for _, l := range leaves {
			if c := cost(l); c < bestCost {
				best, bestCost = l, c
			}
		}
		if best == -1 || bestCost >= 1<<30 || len(leaves)-1+bestCost > maxLeaves {
			break
		}
		kept := leaves[:0]
		for _, l := range leaves {
			if l != best {
				kept = append(kept, l)
			}
		}
		leaves = kept
		delete(inCut, best)
		for _, f := range n.Fanins(best) {
			fid := f.Node()
			if fid == 0 {
				continue
			}
			visited[fid] = true
			if !inCut[fid] {
				inCut[fid] = true
				leaves = append(leaves, fid)
			}
		}
	}
	slices.Sort(leaves)
	return leaves
}

// cutTT computes the function of root over the cut leaves.
func (n *Net) cutTT(root int, leaves []int) tt.TT {
	nv := len(leaves)
	local := make(map[int]tt.TT, 2*nv)
	local[0] = tt.New(nv)
	for i, leaf := range leaves {
		local[leaf] = tt.Var(i, nv)
	}
	var eval func(id int) tt.TT
	in := func(l aig.Lit) tt.TT {
		t := eval(l.Node())
		if l.IsCompl() {
			return t.Not()
		}
		return t
	}
	eval = func(id int) tt.TT {
		if t, ok := local[id]; ok {
			return t
		}
		t := n.eval(id, in)
		local[id] = t
		return t
	}
	return eval(root)
}

// mffcBounded returns the size of id's fanout-free cone, stopping at the
// cut leaves: the gates that would be freed if id were removed. refs is
// restored before returning.
func (n *Net) mffcBounded(id int, refs []int, leaves []int) int {
	boundary := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		boundary[l] = true
	}
	inside := func(fid int) bool { return refs[fid] == 0 && n.IsGate(fid) && !boundary[fid] }
	var deref func(id int) int
	deref = func(id int) int {
		size := 1
		for _, f := range n.Fanins(id) {
			fid := f.Node()
			refs[fid]--
			if inside(fid) {
				size += deref(fid)
			}
		}
		return size
	}
	var reref func(id int)
	reref = func(id int) {
		for _, f := range n.Fanins(id) {
			fid := f.Node()
			if inside(fid) {
				reref(fid)
			}
			refs[fid]++
		}
	}
	size := deref(id)
	reref(id)
	return size
}

// Profile carries the diversity artifacts of one network — the paper's
// framework transplanted to XAGs and MIGs. The reduction is the
// single-step cone-rewriting reduction ratio, the counterpart of the
// Rewrite Score's r(A).
type Profile struct {
	Gates     int
	Levels    int
	Reduction float64
}

// NewProfile profiles n, running one rewriting step with resyn.
func NewProfile(n *Net, resyn Resynth) Profile {
	p := Profile{Gates: n.NumGates(), Levels: n.NumLevels()}
	if p.Gates > 0 {
		p.Reduction = float64(p.Gates-RewriteOnce(n, resyn).NumGates()) / float64(p.Gates)
	}
	return p
}

// RelDiff is Eq. 2's relative difference |a-b| / (a+b), 0 when both are 0.
func RelDiff(a, b int) float64 {
	if a+b == 0 {
		return 0
	}
	return math.Abs(float64(a-b)) / float64(a+b)
}

// RGC is the Relative Gate Count difference (Eq. 2).
func RGC(a, b Profile) float64 { return RelDiff(a.Gates, b.Gates) }

// RLC is the Relative Level Count difference.
func RLC(a, b Profile) float64 { return RelDiff(a.Levels, b.Levels) }

// RewriteScore is Eq. 3 with the cone-rewriting operator.
func RewriteScore(a, b Profile) float64 { return math.Abs(a.Reduction - b.Reduction) }
