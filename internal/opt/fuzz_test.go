package opt

import (
	"context"
	"testing"

	"repro/internal/aig"
)

// Bounds of the AIGs FuzzOptimize decodes: few enough inputs for
// exhaustive equivalence checking, few enough nodes to keep every flow
// fast.
const (
	fuzzMaxInputs = 10
	fuzzMaxAnds   = 200
)

// decodeAIG turns fuzz bytes into an AIG. The first byte picks the input
// count (1..fuzzMaxInputs) and the second the output count (1..4). Each
// following pair of bytes ANDs two earlier literals, stopping at
// fuzzMaxAnds AND nodes: a byte b counts b/2 literals back from the
// newest and complements it when b is odd. The outputs are the newest
// literals, alternately complemented.
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

// FuzzOptimize runs every script pass and every flow on a decoded AIG
// and requires a structurally valid result with the input's function.
//
// Run with: make fuzz   (or: go test -fuzz '^FuzzOptimize$' ./internal/opt)
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 4, 3, 5, 6, 7})
	f.Add([]byte{3, 1, 2, 4, 6, 3, 8, 5, 9, 10, 11, 7, 12, 13})
	f.Add([]byte{5, 2, 2, 4, 6, 8, 10, 12, 3, 5, 7, 9, 11, 13, 14, 16, 18, 20, 15, 17, 19, 21, 22, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeAIG(data)
		check := func(name string, ng *aig.AIG) {
			t.Helper()
			if err := ng.Check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mustEquiv(t, name, g, ng)
		}
		for _, p := range Passes() {
			check(p.Atom, p.Apply(g))
		}
		for _, flow := range Flows() {
			check(flow.Name, flow.RunCtx(context.Background(), g, 1))
		}
	})
}
