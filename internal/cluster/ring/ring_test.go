package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%d", i+1)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0, 0); err == nil {
		t.Fatal("empty member list must be rejected")
	}
	if _, err := New([]string{"a", ""}, 0, 0); err == nil {
		t.Fatal("empty member ID must be rejected")
	}
	r, err := New([]string{"b", "a", "b"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Members(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("members not sorted/deduplicated: %v", got)
	}
}

// TestOwnersContract pins the basic lookup contract: R distinct owners,
// deterministic across builds and member-list orderings, and identical
// for the canonicalized pair key regardless of operand order.
func TestOwnersContract(t *testing.T) {
	ms := members(5)
	r1, err := New(ms, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []string{"n4", "n2", "n5", "n1", "n3"}
	r2, err := New(shuffled, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%d", i)
		o1, o2 := r1.Owners(key), r2.Owners(key)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("owner order depends on member-list order: %v vs %v", o1, o2)
		}
		if len(o1) != 3 {
			t.Fatalf("want 3 owners, got %v", o1)
		}
		seen := map[string]bool{}
		for _, m := range o1 {
			if seen[m] {
				t.Fatalf("duplicate owner in %v", o1)
			}
			seen[m] = true
		}
	}
	if PairKey("b", "a") != PairKey("a", "b") {
		t.Fatal("PairKey must canonicalize operand order")
	}
	if r1.Owner(PairKey("x", "y")) != r1.Owners(PairKey("y", "x"))[0] {
		t.Fatal("pair owner must not depend on operand order")
	}
}

// TestRingStability is the consistent-hashing property: growing the
// cluster by one node may move only ~1/(N+1) of the keys' primary
// owners, never reshuffle the space. The table pins the bound across
// cluster sizes.
func TestRingStability(t *testing.T) {
	const keys = 10000
	cases := []struct {
		name   string
		before int
	}{
		{"3_to_4", 3},
		{"5_to_6", 5},
		{"10_to_11", 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			small, err := New(members(tc.before), 128, 1)
			if err != nil {
				t.Fatal(err)
			}
			big, err := New(members(tc.before+1), 128, 1)
			if err != nil {
				t.Fatal(err)
			}
			added := fmt.Sprintf("n%d", tc.before+1)
			moved := 0
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("fp-%08d", i)
				a, b := small.Owner(key), big.Owner(key)
				if a == b {
					continue
				}
				// Consistent hashing only ever moves keys TO the added
				// member; a key hopping between surviving members would
				// invalidate every replica's cache on scale-out.
				if b != added {
					t.Fatalf("key %q moved %s→%s, not to the added member", key, a, b)
				}
				moved++
			}
			expected := keys / (tc.before + 1)
			// 128 vnodes keeps the imbalance modest; allow 2× expected
			// movement before calling the placement broken.
			if moved > 2*expected {
				t.Fatalf("adding one node moved %d/%d keys; want ≤ ~1/N ≈ %d (bound %d)",
					moved, keys, expected, 2*expected)
			}
			if moved == 0 {
				t.Fatal("adding a node moved nothing: the new member takes no load")
			}
		})
	}
}

// TestBalance guards against gross virtual-node imbalance: no member
// of a 5-node ring may own more than twice its fair share of primary
// assignments.
func TestBalance(t *testing.T) {
	r, err := New(members(5), 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("fp-%08d", i))]++
	}
	fair := keys / 5
	for m, n := range counts {
		if n > 2*fair || n < fair/2 {
			t.Fatalf("member %s owns %d/%d keys (fair share %d): vnode spread is broken", m, n, keys, fair)
		}
	}
}

// TestTableFailover pins the eviction semantics: a down owner's ranges
// fail over to the next clockwise replicas, surviving assignments do
// not move, and re-admission restores exactly the original owners.
func TestTableFailover(t *testing.T) {
	tab, err := NewTableAt(members(5), 64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]string{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp-%d", i)
		before[key] = tab.Owners(key)
	}
	if !tab.SetDown("n2", true) {
		t.Fatal("first eviction must report a change")
	}
	if tab.SetDown("n2", true) {
		t.Fatal("re-evicting must be a no-op")
	}
	if got := tab.Down(); !reflect.DeepEqual(got, []string{"n2"}) {
		t.Fatalf("Down() = %v", got)
	}
	for key, orig := range before {
		owners := tab.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("key %q: want 2 alive owners, got %v", key, owners)
		}
		for _, m := range owners {
			if m == "n2" {
				t.Fatalf("key %q still routed to evicted member: %v", key, owners)
			}
		}
		// Surviving original owners keep their position (prefix order
		// preserved, fail-over members appended after them).
		want := 0
		for _, m := range orig {
			if m == "n2" {
				continue
			}
			if owners[want] != m {
				t.Fatalf("key %q: surviving owner %s displaced: before %v after %v", key, m, orig, owners)
			}
			want++
		}
	}
	if !tab.SetDown("n2", false) {
		t.Fatal("re-admission must report a change")
	}
	for key, orig := range before {
		if got := tab.Owners(key); !reflect.DeepEqual(got, orig) {
			t.Fatalf("key %q: re-admission did not restore ownership: before %v after %v", key, orig, got)
		}
	}
}

// TestTableConcurrentMembership is the -race stress: lookups stay
// consistent (non-empty owner sets, never a down member) while other
// goroutines continuously evict and re-admit nodes AND a third mutator
// replaces the whole table with alternating 8- and 9-member rings
// under increasing epochs — the epoch-install path a live
// reconfiguration exercises mid-churn.
func TestTableConcurrentMembership(t *testing.T) {
	tab, err := NewTableAt(members(8), 32, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring8, err := New(members(8), 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	ring9, err := New(members(9), 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// Mutators: two goroutines toggling disjoint member subsets, so at
	// most 2 members are down at once and lookups always have owners.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := fmt.Sprintf("n%d", 1+4*g+r.Intn(4))
				tab.SetDown(m, true)
				tab.SetDown(m, false)
			}
		}(g)
	}
	// Epoch installer: swaps the entire ring (grow to 9, shrink to 8,
	// …) under strictly increasing epochs, concurrently with the
	// down-set churn above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rings := [2]*Ring{ring9, ring8}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			epoch := tab.Epoch()
			if !tab.Install(epoch+1, rings[i%2]) {
				errc <- fmt.Errorf("install of epoch %d refused", epoch+1)
				return
			}
			if tab.Install(epoch, rings[i%2]) {
				errc <- fmt.Errorf("stale install at epoch %d accepted", epoch)
				return
			}
		}
	}()
	// Lookups: owners must be non-empty and duplicate-free, and the
	// observed epoch must never move backwards, whatever the concurrent
	// membership churn and table replacement.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e := tab.Epoch(); e < lastEpoch {
					errc <- fmt.Errorf("epoch moved backwards: %d after %d", e, lastEpoch)
					return
				} else {
					lastEpoch = e
				}
				key := fmt.Sprintf("fp-%d", r.Intn(4096))
				owners := tab.Owners(key)
				if len(owners) == 0 {
					errc <- fmt.Errorf("key %q: no alive owners under churn", key)
					return
				}
				seen := map[string]bool{}
				for _, m := range owners {
					if seen[m] {
						errc <- fmt.Errorf("key %q: duplicate owner %v", key, owners)
						return
					}
					seen[m] = true
				}
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestTableInstall pins the epoch semantics: installs must move the
// epoch strictly forward, a refused install leaves the table
// untouched, and down-marks for members absent from the new ring are
// dropped while surviving marks persist.
func TestTableInstall(t *testing.T) {
	tab, err := NewTableAt(members(3), 32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Epoch(); got != 1 {
		t.Fatalf("fresh table epoch = %d, want 1", got)
	}
	r4, err := New(members(4), 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Install(1, r4) {
		t.Fatal("install at the current epoch must be refused")
	}
	tab.SetDown("n2", true)
	tab.SetDown("n3", true)
	if !tab.Install(2, r4) {
		t.Fatal("install at epoch 2 must succeed")
	}
	if got := tab.Epoch(); got != 2 {
		t.Fatalf("epoch after install = %d, want 2", got)
	}
	if got := tab.Ring().Members(); !reflect.DeepEqual(got, members(4)) {
		t.Fatalf("ring after install has members %v", got)
	}
	// Surviving down-marks persist across the install.
	if got := tab.Down(); !reflect.DeepEqual(got, []string{"n2", "n3"}) {
		t.Fatalf("down after grow install = %v, want [n2 n3]", got)
	}
	// Shrinking back to 2 members drops the mark of the removed n3, so
	// a later rejoin of the same ID starts clean.
	r2, err := New(members(2), 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Install(5, r2) {
		t.Fatal("install at epoch 5 must succeed")
	}
	if got := tab.Down(); !reflect.DeepEqual(got, []string{"n2"}) {
		t.Fatalf("down after shrink install = %v, want [n2]", got)
	}
	if tab.Install(4, r4) {
		t.Fatal("install below the current epoch must be refused")
	}
	if got := tab.Epoch(); got != 5 {
		t.Fatalf("refused install changed the epoch to %d", got)
	}
}

// TestMovedOwners pins the handoff planner's bound: growing a ring by
// one member means only ~1/(N+1) of the keys gain an owner, the gained
// owner is always the added member, and an unchanged ring moves
// nothing.
func TestMovedOwners(t *testing.T) {
	small, err := New(members(5), 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(members(6), 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 5000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("fp-%08d", i)
		gained := MovedOwners(small, big, key)
		if len(gained) == 0 {
			continue
		}
		if len(gained) != 1 || gained[0] != "n6" {
			t.Fatalf("key %q gained owners %v, want exactly the added member", key, gained)
		}
		moved++
		if MovedOwners(big, small, key) == nil {
			t.Fatalf("key %q moved on grow but not on the inverse shrink", key)
		}
	}
	if moved == 0 {
		t.Fatal("growing the ring moved nothing")
	}
	// Replication 2 on 5→6 members: each of the added member's vnode
	// arcs displaces one of two owners, so roughly 2/6 of keys gain it.
	// Allow 2× slack like TestRingStability.
	if bound := 2 * (2 * keys / 6); moved > bound {
		t.Fatalf("growing by one moved %d/%d keys, want ≤ %d", moved, keys, bound)
	}
	for i := 0; i < 100; i++ {
		if got := MovedOwners(small, small, fmt.Sprintf("fp-%d", i)); got != nil {
			t.Fatalf("identical rings moved %v", got)
		}
	}
}
