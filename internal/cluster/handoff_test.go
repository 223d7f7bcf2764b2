package cluster

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster/ring"
)

// TestHandoffTargetRules checks the reconfigure and drain target rules
// on fixed rings, key by key: every member that runs a rule gets the
// transfers the row's oracle assigns it, and no other member gets any.
// The oracles walk a replication-4 ring over the same members, which
// places keys identically, so a slot's inheritor is read off the walk
// rather than recomputed the way the rules do.
func TestHandoffTargetRules(t *testing.T) {
	mk := func(replicas int, ids ...string) *ring.Ring {
		r, err := ring.New(ids, ring.DefaultVNodes, replicas)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	three := mk(2, "n1", "n2", "n3")
	four := mk(2, "n1", "n2", "n3", "n4")
	walk := mk(4, "n1", "n2", "n3", "n4")
	down := func(ids ...string) map[string]bool {
		m := make(map[string]bool)
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	// firstAlive is the first owner of key under r that is not down.
	firstAlive := func(r *ring.Ring, key string, down map[string]bool) string {
		for _, id := range r.Owners(key) {
			if !down[id] {
				return id
			}
		}
		return ""
	}
	// inheritors are the members that take over owners' slots when
	// gone leave the walk.
	inheritors := func(key string, gone map[string]bool) []string {
		owners := four.Owners(key)
		var alive, out []string
		for _, id := range walk.Owners(key) {
			if !gone[id] {
				alive = append(alive, id)
			}
		}
		for _, id := range alive[:len(owners)] {
			if !slices.Contains(owners, id) {
				out = append(out, id)
			}
		}
		return out
	}

	cases := []struct {
		name    string
		runners []string // members that run the rule
		rule    func(self string) func(key string) []string
		// want names the one member that streams key and its targets;
		// "" means no member streams it.
		want func(key string) (string, []string)
		// hit reports whether key exercises the row's point; at least
		// one key must.
		hit func(key string) bool
	}{
		{
			name:    "reconfigure: first old owner down, next alive owner streams",
			runners: three.Members(),
			rule: func(self string) func(string) []string {
				return reconfigureTargets(three, four, self, down("n1"), nil)
			},
			want: func(key string) (string, []string) {
				return firstAlive(three, key, down("n1")), ring.MovedOwners(three, four, key)
			},
			hit: func(key string) bool {
				return three.Owner(key) == "n1" && len(ring.MovedOwners(three, four, key)) > 0
			},
		},
		{
			name:    "reconfigure: rejoining member receives every key it owns",
			runners: three.Members(),
			rule: func(self string) func(string) []string {
				return reconfigureTargets(three, mk(2, "n1", "n2", "n3"), self, down("n3"), []string{"n3"})
			},
			want: func(key string) (string, []string) {
				if !slices.Contains(three.Owners(key), "n3") {
					return "", nil
				}
				return firstAlive(three, key, down("n3")), []string{"n3"}
			},
			hit: func(key string) bool { return slices.Contains(three.Owners(key), "n3") },
		},
		{
			name:    "reconfigure: joining member owning a moved key gets it once",
			runners: three.Members(),
			rule: func(self string) func(string) []string {
				return reconfigureTargets(three, four, self, nil, []string{"n4"})
			},
			want: func(key string) (string, []string) {
				return three.Owner(key), ring.MovedOwners(three, four, key)
			},
			hit: func(key string) bool { return slices.Contains(four.Owners(key), "n4") },
		},
		{
			name:    "drain: owned key goes to the member inheriting the slot",
			runners: []string{"n1"},
			rule: func(self string) func(string) []string {
				return drainTargets(four, self, nil)
			},
			want: func(key string) (string, []string) {
				if !slices.Contains(four.Owners(key), "n1") {
					return "", nil
				}
				return "n1", inheritors(key, down("n1"))
			},
			hit: func(key string) bool { return slices.Contains(four.Owners(key), "n1") },
		},
		{
			name:    "drain: a down inheritor is skipped",
			runners: []string{"n1"},
			rule: func(self string) func(string) []string {
				return drainTargets(four, self, down("n2"))
			},
			want: func(key string) (string, []string) {
				if !slices.Contains(four.Owners(key), "n1") {
					return "", nil
				}
				return "n1", inheritors(key, down("n1", "n2"))
			},
			hit: func(key string) bool {
				owners := four.Owners(key)
				return slices.Contains(owners, "n1") && slices.Equal(inheritors(key, down("n1")), []string{"n2"})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules := make(map[string]func(string) []string, len(tc.runners))
			for _, id := range tc.runners {
				rules[id] = tc.rule(id)
			}
			hits := 0
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", i)
				if tc.hit(key) {
					hits++
				}
				sender, targets := tc.want(key)
				if len(targets) == 0 {
					sender = ""
				}
				for _, id := range tc.runners {
					got := rules[id](key)
					var want []string
					if id == sender {
						want = targets
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: %s streams to %v, want %v", key, id, got, want)
					}
				}
			}
			if hits == 0 {
				t.Error("no key exercises this case")
			}
		})
	}
}

// TestHandoffLeavesPeerHealthAlone: a delivered handoff put must not
// re-admit a down peer. A rejoining member is such a peer while it
// backfills, and only a probe may bring it back into routing.
func TestHandoffLeavesPeerHealthAlone(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) {
		c.ProbeInterval = time.Hour // no probe may re-admit n2 either
	})
	n1 := tc.nodes["n1"]
	n1.table.SetDown("n2", true)
	plan := []transfer{{aiger: testAIG(t, 3), targets: []string{"n2"}}}
	if err := n1.runHandoff(context.Background(), plan, tc.urls, true); err != nil {
		t.Fatalf("handoff to n2: %v", err)
	}
	if !n1.table.IsDown("n2") {
		t.Error("a handoff put re-admitted down peer n2 to routing")
	}
}
