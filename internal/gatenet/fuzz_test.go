package gatenet_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/aig"
	"repro/internal/mig"
	"repro/internal/synth"
	"repro/internal/tt"
	"repro/internal/xag"
)

// Bounds of the AIGs FuzzRewrite decodes: few enough inputs for
// exhaustive equivalence checking, few enough nodes to keep a pass fast.
const (
	fuzzMaxInputs = 10
	fuzzMaxAnds   = 200
)

// decodeAIG turns fuzz bytes into an AIG with opt's FuzzOptimize
// encoding. The first byte picks the input count (1..fuzzMaxInputs) and
// the second the output count (1..4). Each following pair of bytes ANDs
// two earlier literals, stopping at fuzzMaxAnds AND nodes: a byte b
// counts b/2 literals back from the newest and complements it when b is
// odd. The outputs are the newest literals, alternately complemented.
func decodeAIG(data []byte) *aig.AIG {
	var head [2]byte
	n := copy(head[:], data)
	g := aig.New(1 + int(head[0])%fuzzMaxInputs)
	lits := make([]aig.Lit, g.NumPIs())
	for i := range lits {
		lits[i] = g.PI(i)
	}
	lit := func(b byte) aig.Lit {
		return lits[len(lits)-1-int(b>>1)%len(lits)].NotCond(b&1 == 1)
	}
	for rest := data[n:]; len(rest) >= 2 && g.NumAnds() < fuzzMaxAnds; rest = rest[2:] {
		lits = append(lits, g.And(lit(rest[0]), lit(rest[1])))
	}
	for i := 0; i <= int(head[1])%4 && i < len(lits); i++ {
		g.AddPO(lits[len(lits)-1-i].NotCond(i%2 == 1))
	}
	return g
}

// graph is what FuzzRewrite needs of an XAG or a MIG.
type graph interface {
	Check() error
	NumGates() int
	ToAIG() *aig.AIG
}

// FuzzRewrite imports a decoded multi-output AIG as an XAG and as a MIG
// and runs one rewriting pass on each: the imported and the rewritten
// graph must pass Check and compute the AIG's functions, and the pass
// must not grow the graph.
//
// Run with: make fuzz   (or: go test -fuzz '^FuzzRewrite$' ./internal/gatenet)
func FuzzRewrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 2, 1, 5, 2, 3, 1}) // XNOR motif, two outputs
	f.Add([]byte{2, 3, 2, 4, 3, 5, 0, 2, 1, 6, 9, 3, 4, 8, 7, 1})
	f.Add([]byte{3, 1, 2, 4, 6, 3, 8, 5, 9, 10, 11, 7, 12, 13})
	f.Add([]byte{5, 2, 2, 4, 6, 8, 10, 12, 3, 5, 7, 9, 11, 13, 14, 16, 18, 20, 15, 17, 19, 21, 22, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := decodeAIG(data)
		check := func(name string, g graph) {
			t.Helper()
			if err := g.Check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			idx, err := aig.Equivalent(src, g.ToAIG())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if idx != -1 {
				t.Fatalf("%s: output %d changed function", name, idx)
			}
		}
		x := xag.FromAIG(src)
		xr := xag.RewriteOnce(x)
		check("xag", x)
		check("xag rewrite", xr)
		m := mig.FromAIG(src)
		mr := mig.RewriteOnce(m)
		check("mig", m)
		check("mig rewrite", mr)
		if xr.NumGates() > x.NumGates() || mr.NumGates() > m.NumGates() {
			t.Fatalf("rewrite grew the graph: xag %d -> %d, mig %d -> %d",
				x.NumGates(), xr.NumGates(), m.NumGates(), mr.NumGates())
		}
	})
}

// decodeTable turns fuzz bytes into a table with sop's FuzzFactor
// encoding. The first byte picks the variable count (1..10); the
// following bytes fill its words, eight to a word, low byte first, and
// missing bytes are zero.
func decodeTable(data []byte) tt.TT {
	n := 1
	if len(data) > 0 {
		n, data = 1+int(data[0])%10, data[1:]
	}
	words := make([]uint64, tt.WordCount(n))
	for i := range words {
		var b [8]byte
		copy(b[:], data[min(len(data), 8*i):])
		words[i] = binary.LittleEndian.Uint64(b[:])
	}
	return tt.FromWords(n, words)
}

// built is what FuzzRecipes needs of an AIG, an XAG or a MIG.
type built interface {
	Check() error
	OutputTTs() []tt.TT
}

// FuzzRecipes builds a decoded table with every AIG, XAG and MIG
// recipe: each graph must pass Check and compute the table.
//
// Run with: make fuzz   (or: go test -fuzz '^FuzzRecipes$' ./internal/gatenet)
func FuzzRecipes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x96})                                     // 3-input parity
	f.Add([]byte{2, 0xe8})                                     // majority
	f.Add([]byte{6, 0x88, 0x00, 0x0f, 0xf0, 0x12, 0x34, 0x56}) // 7 inputs, sparse
	f.Add([]byte{9, 0xff, 0x00, 0xaa, 0x55, 0xcc, 0x33, 0xf0, 0x0f, 0x01, 0x80, 0x7e})
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := decodeTable(data)
		spec := []tt.TT{fn}
		check := func(name string, g built) {
			t.Helper()
			if err := g.Check(); err != nil {
				t.Fatalf("%s on %d vars %s: %v", name, fn.NumVars(), fn.Hex(), err)
			}
			if out := g.OutputTTs(); len(out) != 1 || !out[0].Equal(fn) {
				t.Fatalf("%s on %d vars %s: wrong function", name, fn.NumVars(), fn.Hex())
			}
		}
		for _, r := range synth.Recipes() {
			check("aig/"+r.Name, r.Build(spec))
		}
		for _, r := range xag.Recipes() {
			check("xag/"+r.Name, r.Build(spec))
		}
		for _, r := range mig.Recipes() {
			check("mig/"+r.Name, r.Build(spec))
		}
	})
}
