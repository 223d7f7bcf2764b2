package synth

import (
	"encoding/binary"
	"sync"

	"repro/internal/aig"
	"repro/internal/tt"
)

// memo is a bounded function→structure cache that concurrent callers
// share. Every value is a pure function of its key, so a cached AIG can
// be handed to any caller, who must only read it; and when the memo
// holds limit entries it starts over empty, which costs no eviction
// bookkeeping and never iterates the map (the passes that consult it
// must stay deterministic).
type memo[K comparable] struct {
	limit int
	mu    sync.Mutex
	m     map[K]*aig.AIG
}

// get returns the structure cached under k, building and caching it on
// a miss. The lock is not held while build runs: building is slow, and
// two racing builds of one key produce equal structures, so the first
// one cached is returned to both.
func (c *memo[K]) get(k K, build func() *aig.AIG) *aig.AIG {
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	if c.m == nil || len(c.m) >= c.limit {
		c.m = make(map[K]*aig.AIG)
	}
	c.m[k] = v
	return v
}

// len reports how many structures the memo holds.
func (c *memo[K]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// wordKey is the exact key of a table of at most 6 variables: its
// variable count and its one word.
func wordKey(f tt.TT) [2]uint64 {
	return [2]uint64{uint64(f.NumVars()), f.Words()[0]}
}

// tableKey is the exact key of a table of any size: its variable count
// followed by its words.
func tableKey(f tt.TT) string {
	b := make([]byte, 1, 1+8*len(f.Words()))
	b[0] = byte(f.NumVars())
	for _, w := range f.Words() {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}
