package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/ring"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
)

// The membership suite exercises the dynamic-membership tentpole
// through the same black-box fixture as the static cluster tests: a
// cluster that grows, drains, and re-keys must keep every answer
// bit-identical to a standalone daemon, keep every key owned by at
// least one active member, and never recompute a result the handoff
// already moved.

// addJoiner boots a fresh member in join mode at the given epoch, with
// a peer view of the existing members plus itself, and registers it in
// the fixture maps so submit/metrics address it like any other member.
func (tc *testCluster) addJoiner(id string, epoch uint64) *Node {
	tc.t.Helper()
	sw := &swapHandler{}
	ts := httptest.NewServer(sw)
	tc.t.Cleanup(ts.Close)
	peers := make(map[string]string, len(tc.urls)+1)
	for mid, u := range tc.urls {
		peers[mid] = u
	}
	peers[id] = ts.URL
	svc := service.New(service.Config{Workers: 2, QueueDepth: 16})
	node, err := New(svc, Config{
		NodeID:             id,
		Peers:              peers,
		Epoch:              epoch,
		Join:               true,
		ProbeInterval:      25 * time.Millisecond,
		ProbeTimeout:       250 * time.Millisecond,
		FailureThreshold:   2,
		PeerAttemptTimeout: time.Second,
		PeerMaxAttempts:    1,
		HTTPClient:         tc.httpCli,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	h := node.Handler()
	sw.h.Store(&h)
	tc.ids = append(tc.ids, id)
	tc.swaps[id] = sw
	tc.urls[id] = ts.URL
	tc.hosts[id] = ts.Listener.Addr().String()
	tc.svcs[id] = svc
	tc.nodes[id] = node
	tc.t.Cleanup(func() {
		node.Close()
		svc.Close()
	})
	return node
}

// allPeers snapshots the fixture's full member map (joiners included)
// as the Peers field of a reconfigure proposal.
func (tc *testCluster) allPeers() map[string]string {
	peers := make(map[string]string, len(tc.urls))
	for id, u := range tc.urls {
		peers[id] = u
	}
	return peers
}

// proposeAll submits one reconfigure proposal to each listed member.
// Every member must admit it: each streams a disjoint share of the
// moved keys (primary-alive-sender rule), so a member skipping the
// change would leave its share to on-demand recompute.
func (tc *testCluster) proposeAll(req client.ReconfigureRequest, ids ...string) {
	tc.t.Helper()
	for _, id := range ids {
		if err := tc.nodes[id].Reconfigure(req); err != nil {
			tc.t.Fatalf("reconfigure on %s: %v", id, err)
		}
	}
}

// waitMembershipAt waits until every listed member has installed epoch
// and reports the active state.
func (tc *testCluster) waitMembershipAt(epoch uint64, ids ...string) {
	tc.t.Helper()
	waitFor(tc.t, 5*time.Second, fmt.Sprintf("epoch %d on all members", epoch), func() bool {
		for _, id := range ids {
			n := tc.nodes[id]
			if n.Epoch() != epoch || n.State() != "active" {
				return false
			}
		}
		return true
	})
}

// waitReplicated waits until every ring owner of each fingerprint
// holds the AIG — the precondition for handoff plans to be complete
// (a node only streams keys it actually stores).
func (tc *testCluster) waitReplicated(fps ...string) {
	tc.t.Helper()
	r := tc.nodes[tc.ids[0]].table.Ring()
	waitFor(tc.t, 3*time.Second, "AIG replication convergence", func() bool {
		for _, fp := range fps {
			for _, id := range r.Owners(fp) {
				if !tc.svcs[id].HasAIG(fp) {
					return false
				}
			}
		}
		return true
	})
}

// waitPairCached waits until every ring owner of the pair holds the
// cached result (async result replication has converged).
func (tc *testCluster) waitPairCached(a, b string) {
	tc.t.Helper()
	r := tc.nodes[tc.ids[0]].table.Ring()
	owners := r.Owners(ring.PairKey(a, b))
	waitFor(tc.t, 3*time.Second, "result replication convergence", func() bool {
		for _, id := range owners {
			if !hasCachedPair(tc.svcs[id], a, b) {
				return false
			}
		}
		return true
	})
}

func hasCachedPair(svc *service.Server, a, b string) bool {
	for _, pr := range svc.CachedPairResults() {
		if (pr.A == a && pr.B == b) || (pr.A == b && pr.B == a) {
			return true
		}
	}
	return false
}

func ownsUnder(r *ring.Ring, id, key string) bool {
	for _, o := range r.Owners(key) {
		if o == id {
			return true
		}
	}
	return false
}

// assertNoUnownedKey checks the DESIGN §5 invariant at one instant:
// every key has at least one ACTIVE member that considers itself an
// owner under its own installed table — even while members disagree
// about the epoch mid-change.
func assertNoUnownedKey(t *testing.T, tc *testCluster, keys []string) {
	t.Helper()
	for _, key := range keys {
		owned := false
		for _, id := range tc.ids {
			n := tc.nodes[id]
			if n.State() != "active" {
				continue
			}
			if ownsUnder(n.table.Ring(), id, key) {
				owned = true
				break
			}
		}
		if !owned {
			t.Fatalf("key %s has no active owner under any installed table", key)
		}
	}
}

// handoffAIGSender returns the old member that the proposal makes the
// primary sender of at least one stored AIG with a non-empty target
// set — the handoff "source" the chaos scenarios kill mid-stream.
func handoffAIGSender(t *testing.T, tc *testCluster, req client.ReconfigureRequest, fps []string) string {
	t.Helper()
	prev := tc.nodes[tc.ids[0]].table.Ring()
	ids := make([]string, 0, len(req.Peers))
	for id := range req.Peers {
		ids = append(ids, id)
	}
	next, err := ring.New(ids, ring.DefaultVNodes, ring.DefaultReplication)
	if err != nil {
		t.Fatal(err)
	}
	joining := make(map[string]bool, len(req.Joining))
	for _, id := range req.Joining {
		joining[id] = true
	}
	for _, fp := range fps {
		owners := prev.Owners(fp)
		if len(owners) == 0 {
			continue
		}
		sender := owners[0]
		if !tc.svcs[sender].HasAIG(fp) {
			continue
		}
		targets := 0
		for _, id := range ring.MovedOwners(prev, next, fp) {
			if id != sender {
				targets++
			}
		}
		for _, id := range next.Owners(fp) {
			if joining[id] && id != sender {
				targets++
			}
		}
		if targets > 0 {
			return sender
		}
	}
	t.Fatal("no old member streams an AIG under this proposal — adjust test seeds")
	return ""
}

// warmPair submits both AIGs through the first node and scores the
// pair through every member, so each one holds the cached result (an
// owner computes or cache-hits locally; a non-owner caches its fill) —
// the precondition for handoff plans to carry the pair wherever its
// primary sender is. Returns the fingerprints plus the standalone
// -daemon reference scores.
func (tc *testCluster) warmPair(seedA, seedB int64) (a, b string, want map[string]float64) {
	tc.t.Helper()
	ga, gb := testAIG(tc.t, seedA), testAIG(tc.t, seedB)
	want = singleNodeScores(tc.t, ga, gb, nil)
	a = tc.submit(tc.ids[0], ga)
	b = tc.submit(tc.ids[0], gb)
	for _, id := range tc.ids {
		if _, _, err := tc.metrics(id, a, b, nil, nil); err != nil {
			tc.t.Fatalf("warm compute via %s: %v", id, err)
		}
	}
	return a, b, want
}

// TestClusterJoinReconfigureMovesKeys: growing 3 → 4 members must (a)
// keep the joiner receiving-only until its backfill lands, (b) stream
// every key the joiner owns under the new ring before any member
// installs it, and (c) afterwards answer every previously computed
// pair from cache — zero recomputes — bit-identically through every
// member, the joiner included.
func TestClusterJoinReconfigureMovesKeys(t *testing.T) {
	resetFaults(t)
	type pair struct {
		a, b string
		want map[string]float64
	}
	tc := newTestCluster(t, 3, nil)
	var pairs []pair
	var fps []string
	for _, s := range [][2]int64{{41, 42}, {43, 44}, {45, 46}} {
		a, b, want := tc.warmPair(s[0], s[1])
		pairs = append(pairs, pair{a, b, want})
		fps = append(fps, a, b)
	}
	tc.waitReplicated(fps...)
	for _, p := range pairs {
		tc.waitPairCached(p.a, p.b)
	}

	// A fresh member boots receiving-only at the proposed epoch: its
	// external API (healthz included) refuses until backfill proof.
	joiner := tc.addJoiner("n4", 2)
	if got := joiner.State(); got != "joining" {
		t.Fatalf("fresh joiner state = %q, want joining", got)
	}
	resp, err := http.Get(tc.urls["n4"] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("joining node healthz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("joining node 503 carries no Retry-After")
	}

	req := client.ReconfigureRequest{Epoch: 2, Peers: tc.allPeers(), Joining: []string{"n4"}}
	tc.proposeAll(req, "n1", "n2", "n3")
	tc.waitMembershipAt(2, tc.ids...)

	// Handoff-before-install: every key the joiner owns under epoch 2
	// was already there when it activated.
	next := joiner.table.Ring()
	ownedKeys := 0
	for _, fp := range fps {
		if !ownsUnder(next, "n4", fp) {
			continue
		}
		ownedKeys++
		if !tc.svcs["n4"].HasAIG(fp) {
			t.Fatalf("joiner owns AIG %s under epoch 2 but never received it", fp)
		}
	}
	var keys []string
	keys = append(keys, fps...)
	for _, p := range pairs {
		key := ring.PairKey(p.a, p.b)
		keys = append(keys, key)
		if !ownsUnder(next, "n4", key) {
			continue
		}
		ownedKeys++
		if !hasCachedPair(tc.svcs["n4"], p.a, p.b) {
			t.Fatalf("joiner owns pair (%s, %s) under epoch 2 but its cached result never arrived", p.a, p.b)
		}
	}
	if ownedKeys == 0 {
		t.Fatal("joiner owns no test key under the new ring — adjust test seeds")
	}
	assertNoUnownedKey(t, tc, keys)

	// The handed-off caches make recomputation unnecessary: every
	// member answers every warmed pair bit-identically, at zero new
	// computes cluster-wide.
	tc.reg.Reset()
	for _, id := range tc.ids {
		for _, p := range pairs {
			scores, _, err := tc.metrics(id, p.a, p.b, nil, nil)
			if err != nil {
				t.Fatalf("metrics via %s after reconfigure: %v", id, err)
			}
			assertBitIdentical(t, scores, p.want, "via "+id+" after reconfigure")
		}
	}
	if n := tc.reg.Counter("service/metric_computes").Value(); n != 0 {
		t.Fatalf("reconfigure cost %d recomputes, want 0 (handoff moved the cached results)", n)
	}
}

// TestClusterDrain: draining a member must evict it from routing on
// the announce (no probe round trip), pre-copy its owned keys to the
// member inheriting them, answer its external refusals with a backlog
// -scaled Retry-After, and leave the survivors serving every answer
// bit-identically with zero failed requests and zero recomputes.
func TestClusterDrain(t *testing.T) {
	resetFaults(t)
	tc := newTestCluster(t, 3, nil)
	a, b, want := tc.warmPair(51, 52)
	owners, nonOwner := tc.pairRoles(a, b)
	tc.waitReplicated(a, b)
	tc.waitPairCached(a, b)

	victim := owners[0]
	resp, err := http.Post(tc.urls[victim]+"/v1/cluster/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain admit = HTTP %d, want 202", resp.StatusCode)
	}

	// The draining node has left routing: its external API refuses
	// with a Retry-After scaled to the remaining handoff backlog.
	hresp, err := http.Get(tc.urls[victim] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining node healthz = %d, want 503", hresp.StatusCode)
	}
	if ra := hresp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 carries no Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("draining Retry-After = %q, want a positive integer", ra)
	}

	// Peers evict the drained member on the announce — faster than
	// probe-driven detection, and probes (which see the gated healthz)
	// keep it evicted.
	for _, id := range tc.ids {
		if id == victim {
			continue
		}
		id := id
		waitFor(t, 2*time.Second, "eviction of "+victim+" on "+id, func() bool {
			return tc.nodes[id].table.IsDown(victim)
		})
	}

	// The pre-copy lands the victim's owned keys on the member that
	// inherits them (3 members, replication 2: the former non-owner).
	waitFor(t, 3*time.Second, "handoff of the cached pair to "+nonOwner, func() bool {
		return hasCachedPair(tc.svcs[nonOwner], a, b)
	})
	waitFor(t, 3*time.Second, "drain handoff completion", func() bool {
		st := tc.nodes[victim].Status()
		return st.State == "draining" && !st.Handoff.Active && st.Handoff.Sent >= 1
	})

	// Survivors answer bit-identically, zero failures, zero recomputes.
	tc.reg.Reset()
	for _, id := range tc.ids {
		if id == victim {
			continue
		}
		scores, _, err := tc.metrics(id, a, b, nil, nil)
		if err != nil {
			t.Fatalf("metrics via %s during drain: %v", id, err)
		}
		assertBitIdentical(t, scores, want, "via "+id+" during drain")
	}
	if n := tc.reg.Counter("service/metric_computes").Value(); n != 0 {
		t.Fatalf("drain cost %d recomputes, want 0", n)
	}
	assertNoUnownedKey(t, tc, []string{a, b, ring.PairKey(a, b)})

	// The drained member keeps answering peer endpoints while its
	// external API refuses.
	sresp, err := http.Get(tc.urls[victim] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("draining node peer status = HTTP %d, want 200", sresp.StatusCode)
	}

	// Drain is idempotent.
	if err := tc.nodes[victim].StartDrain(); err != nil {
		t.Fatalf("re-drain: %v", err)
	}
}

// TestClusterDrainStatusActiveAtOnce: a Status read right after
// StartDrain returns must already show the pre-copy running, never a
// draining node with an idle handoff and the previous run's counters
// (which made aigw drain report 0/0 keys handed off before the copy
// began). Every transfer stalls, so the handoff cannot finish while the
// test looks.
func TestClusterDrainStatusActiveAtOnce(t *testing.T) {
	resetFaults(t)
	tc := newTestCluster(t, 3, nil)
	a, b, _ := tc.warmPair(55, 56)
	owners, _ := tc.pairRoles(a, b)
	tc.waitPairCached(a, b)
	stall := faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 200 * time.Millisecond}
	faultinject.Arm(PointHandoffAIG, faultinject.Always(), stall)
	faultinject.Arm(PointHandoffResult, faultinject.Always(), stall)
	faultinject.Enable()

	victim := tc.nodes[owners[0]]
	if err := victim.StartDrain(); err != nil {
		t.Fatal(err)
	}
	if st := victim.Status(); st.State != "draining" || !st.Handoff.Active {
		t.Fatalf("status right after StartDrain: state %q, handoff active %v; want draining with the pre-copy running",
			st.State, st.Handoff.Active)
	}
}

// TestClusterReconfigureExactlyOnce: the dedup machinery must survive
// a table replacement — an epoch bump keeps the pre-change cache
// (zero recomputes for warmed pairs) and a post-change fan-in still
// costs the cluster exactly one compute and one peer fill.
func TestClusterReconfigureExactlyOnce(t *testing.T) {
	resetFaults(t)
	tc := newTestCluster(t, 3, nil)
	a, b, _ := tc.warmPair(61, 62)
	tc.waitPairCached(a, b)

	// An epoch bump with unchanged members: the degenerate reconfigure
	// (no key moves), isolating the table swap itself.
	req := client.ReconfigureRequest{Epoch: 2, Peers: tc.allPeers()}
	tc.proposeAll(req, tc.ids...)
	tc.waitMembershipAt(2, tc.ids...)

	// The pre-reconfigure cache survives the swap.
	tc.reg.Reset()
	for _, id := range tc.ids {
		if _, _, err := tc.metrics(id, a, b, nil, nil); err != nil {
			t.Fatalf("metrics via %s after epoch bump: %v", id, err)
		}
	}
	if n := tc.reg.Counter("service/metric_computes").Value(); n != 0 {
		t.Fatalf("cached pair recomputed %d times after reconfigure, want 0", n)
	}

	// A fresh pair fanned in through a non-owner under the new epoch:
	// exactly one compute and one peer fill cluster-wide.
	c := tc.submit(tc.ids[0], testAIG(t, 63))
	d := tc.submit(tc.ids[0], testAIG(t, 64))
	_, nonOwner := tc.pairRoles(c, d)
	tc.reg.Reset()
	const fanIn = 12
	var wg sync.WaitGroup
	errs := make(chan error, fanIn)
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := tc.metrics(nonOwner, c, d, []string{"VEO"}, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := tc.reg.Counter("service/metric_computes").Value(); n != 1 {
		t.Fatalf("fan-in after reconfigure computed %d times, want exactly 1", n)
	}
	if n := tc.reg.Counter("cluster/fills").Value(); n != 1 {
		t.Fatalf("fan-in after reconfigure cost %d peer fills, want exactly 1", n)
	}
}
