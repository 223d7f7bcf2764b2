package synth

import (
	"sync"

	"repro/internal/tt"
)

// memo is a bounded key→value cache that concurrent callers share. Every
// value is a pure function of its key, so a cached structure can be
// handed to any caller, who must only read it; and when the memo holds
// limit entries it starts over empty, which costs no eviction
// bookkeeping and never iterates the map (the passes that consult it
// must stay deterministic).
type memo[K comparable, V any] struct {
	limit int
	mu    sync.Mutex
	m     map[K]V
}

// get returns the value cached under k, building and caching it on a
// miss. The lock is not held while build runs: building is slow, and
// two racing builds of one key produce equal values, so the first one
// cached is returned to both.
func (c *memo[K, V]) get(k K, build func() V) V {
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
		c.m = make(map[K]V)
	}
	c.m[k] = v
	return v
}

// len reports how many entries the memo holds.
func (c *memo[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// wordKey is the exact key of a table of at most 6 variables: its
// variable count and its one word.
func wordKey(f tt.TT) [2]uint64 {
	if f.NumWords() > 1 {
		panic("synth: wordKey of a table over 6 variables")
	}
	return [2]uint64{uint64(f.NumVars()), f.Word(0)}
}

// tableKey is the exact key of a table of at most 10 variables: its
// variable count followed by its words, zero-padded. It reports false for
// a larger table, which the memo does not hold.
func tableKey(f tt.TT) (k [17]uint64, ok bool) {
	if f.NumWords() > len(k)-1 {
		return k, false
	}
	k[0] = uint64(f.NumVars())
	for i := 0; i < f.NumWords(); i++ {
		k[1+i] = f.Word(i)
	}
	return k, true
}
