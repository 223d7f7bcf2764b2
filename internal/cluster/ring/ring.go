// Package ring implements the consistent-hash routing table the aigd
// cluster and the client-side gateway share. Fingerprints (and pair
// cache keys derived from them) are hashed onto a 64-bit circle; every
// member contributes a fixed number of virtual nodes so load spreads
// evenly; a key's owners are the first R distinct members clockwise
// from the key's hash.
//
// The package is deliberately dependency-free: internal/cluster (the
// server side) and internal/service/client (the gateway side) both
// import it, and both must compute byte-identical placements from the
// same membership list — routing is a contract, not a heuristic.
//
// Two levels of API:
//
//   - Ring is an immutable snapshot over a fixed member list. Building
//     one is O(members·vnodes·log); lookups are O(log points). Adding a
//     member to the list moves only ~1/N of the key space (the
//     consistent-hashing property the tests pin).
//   - Table wraps an epoch-tagged Ring with a mutable down-set for
//     health-gated routing: evicting a member does not rebuild the
//     ring, it only swaps an atomic exclusion snapshot, so lookups stay
//     lock-free and a healed member resumes exactly the ranges it
//     owned before. Membership changes swap the whole ring under a
//     monotonically increasing epoch (Install), equally lock-free.
//
// MovedOwners is the handoff planner's primitive: given two rings it
// reports, per key, which members gained ownership — the exact set a
// planned membership change must stream that key to before the new
// table is installed.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Default sizing: 64 virtual nodes keeps the per-member load imbalance
// within a few percent for small static clusters; replication 2 means
// every key range survives one node failure.
const (
	DefaultVNodes      = 64
	DefaultReplication = 2
)

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash snapshot over a member list.
// It is safe for concurrent use.
type Ring struct {
	points   []point  // sorted by hash
	members  []string // sorted, deduplicated
	replicas int
}

// hashKey positions a routing key on the circle: FNV-64a followed by a
// 64-bit avalanche finalizer. Raw FNV keeps short structured inputs
// ("n1#0", "n1#1", …) correlated enough to skew virtual-node placement
// badly (TestBalance catches a 7× spread without the mix); the
// finalizer diffuses every input bit across the word. Stdlib-only and
// stable across processes and architectures — placement is the routing
// contract between cluster nodes and gateways.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// New builds a Ring over members with the given virtual-node count and
// replication factor (zeros take the defaults). Duplicate members are
// collapsed; order does not matter — two processes given the same set
// build byte-identical rings.
func New(members []string, vnodes, replicas int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if replicas <= 0 {
		replicas = DefaultReplication
	}
	uniq := make(map[string]bool, len(members))
	var sorted []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("ring: empty member ID")
		}
		if !uniq[m] {
			uniq[m] = true
			sorted = append(sorted, m)
		}
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("ring: no members")
	}
	sort.Strings(sorted)
	r := &Ring{members: sorted, replicas: replicas}
	r.points = make([]point, 0, len(sorted)*vnodes)
	for _, m := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(m + "#" + strconv.Itoa(v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member so placement
		// stays deterministic across builds.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the sorted member list (shared slice — do not
// mutate).
func (r *Ring) Members() []string { return r.members }

// Owners returns the key's owner members in preference order: the
// first R distinct members clockwise from the key's hash position.
// Fewer than R members means every member owns every key.
func (r *Ring) Owners(key string) []string {
	return r.ownersExcluding(key, nil)
}

// OwnersAlive is Owners restricted to members not in down: the
// failover view. With every owner down it returns an empty slice —
// callers decide whether to degrade (compute locally) or refuse.
func (r *Ring) OwnersAlive(key string, down map[string]bool) []string {
	return r.ownersExcluding(key, down)
}

func (r *Ring) ownersExcluding(key string, down map[string]bool) []string {
	want := r.replicas
	if n := len(r.members); want > n {
		want = n
	}
	out := make([]string, 0, want)
	seen := make(map[string]bool, want)
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < want; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] || down[p.member] {
			continue
		}
		seen[p.member] = true
		out = append(out, p.member)
	}
	return out
}

// Owner returns the key's primary owner (first of Owners).
func (r *Ring) Owner(key string) string {
	return r.Owners(key)[0]
}

// PairKey is the canonical routing key for a pairwise result: the two
// fingerprints in sorted order. It matches the service result cache's
// operand canonicalization, so all metrics of one pair land on one
// owner — one peer round trip fills a whole pair.
func PairKey(fpA, fpB string) string {
	if fpA > fpB {
		fpA, fpB = fpB, fpA
	}
	return fpA + "|" + fpB
}

// MovedOwners returns the members that own key under next but not
// under prev: the receivers a planned membership change must stream
// the key to before installing next. By the consistent-hashing
// property, adding one member to an N-member ring yields a non-empty
// result for only ~1/N of the key space — the handoff volume bound.
func MovedOwners(prev, next *Ring, key string) []string {
	if prev == next {
		return nil
	}
	old := prev.Owners(key)
	was := make(map[string]bool, len(old))
	for _, m := range old {
		was[m] = true
	}
	var out []string
	for _, m := range next.Owners(key) {
		if !was[m] {
			out = append(out, m)
		}
	}
	return out
}

// tableState is one epoch's immutable routing view: the ring plus the
// membership epoch it was installed under.
type tableState struct {
	epoch uint64
	ring  *Ring
}

// Table is an epoch-tagged Ring plus a mutable health exclusion set.
// Lookups read atomic snapshots of both, so routing never takes a lock:
// eviction/re-admission and whole-table replacement (Install) are
// single pointer swaps — membership changes race-free against
// in-flight lookups (the -race stress test pins this).
type Table struct {
	state atomic.Pointer[tableState]

	mu   sync.Mutex // serializes writers to state and down
	down atomic.Pointer[map[string]bool]
}

// NewTableAt builds a Table at an explicit starting epoch with every
// member initially alive: epoch 1 for a fresh cluster, a later one on
// the boot path of a node joining (or rejoining) a cluster that has
// already advanced past epoch 1.
func NewTableAt(members []string, vnodes, replicas int, epoch uint64) (*Table, error) {
	r, err := New(members, vnodes, replicas)
	if err != nil {
		return nil, err
	}
	t := &Table{}
	t.state.Store(&tableState{epoch: epoch, ring: r})
	empty := map[string]bool{}
	t.down.Store(&empty)
	return t, nil
}

// Ring returns the current immutable ring (the static placement view,
// health ignored).
func (t *Table) Ring() *Ring { return t.state.Load().ring }

// Epoch returns the membership epoch of the current ring.
func (t *Table) Epoch() uint64 { return t.state.Load().epoch }

// Install atomically replaces the routing table with a new ring under
// a strictly greater epoch. A stale or duplicate install (epoch not
// greater than the current one) is refused — epochs are the total
// order on membership, so the table can only move forward. Down-marks
// for members absent from the new ring are dropped so a later rejoin
// of the same ID starts clean.
func (t *Table) Install(epoch uint64, r *Ring) bool {
	if r == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch <= t.state.Load().epoch {
		return false
	}
	keep := make(map[string]bool, len(r.members))
	for _, m := range r.members {
		keep[m] = true
	}
	cur := *t.down.Load()
	next := make(map[string]bool, len(cur))
	for m, d := range cur {
		if d && keep[m] {
			next[m] = true
		}
	}
	t.down.Store(&next)
	t.state.Store(&tableState{epoch: epoch, ring: r})
	return true
}

// SetDown marks a member down (evicted from routing) or up
// (re-admitted). It reports whether the state actually changed.
func (t *Table) SetDown(member string, down bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.down.Load()
	if cur[member] == down {
		return false
	}
	next := make(map[string]bool, len(cur)+1)
	for m, d := range cur {
		if d {
			next[m] = true
		}
	}
	if down {
		next[member] = true
	} else {
		delete(next, member)
	}
	t.down.Store(&next)
	return true
}

// Down returns the sorted list of currently evicted members.
func (t *Table) Down() []string {
	cur := *t.down.Load()
	out := make([]string, 0, len(cur))
	for m := range cur {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// IsDown reports whether a member is currently evicted.
func (t *Table) IsDown(member string) bool {
	return (*t.down.Load())[member]
}

// Owners returns the key's owners with evicted members skipped: a down
// owner's ranges fail over to the next replicas clockwise. Empty means
// every candidate owner is down.
func (t *Table) Owners(key string) []string {
	return t.state.Load().ring.ownersExcluding(key, *t.down.Load())
}
