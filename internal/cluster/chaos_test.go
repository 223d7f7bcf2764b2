package cluster

import (
	"testing"
	"time"

	"repro/internal/cluster/ring"
	"repro/internal/faultinject"
	"repro/internal/service/client"
)

// The chaos suite (run under `make chaos`, always with -race) proves
// the tentpole's robustness claims against deterministic injected
// faults: partitions mid-request, torn peer responses, replication
// killed mid-fan-out, and eviction/re-admission timing. Every scenario
// asserts the answer stays bit-identical to a standalone daemon — the
// cluster is allowed to get slower under faults, never wrong.

func resetFaults(t *testing.T) {
	t.Helper()
	faultinject.Disable()
	faultinject.Reset()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
}

// TestChaosPartitionMidRequestFailover: partitioning the pair's first
// owner away from its peers must not change any answer. The fill fan
// -out fails over to the replica inline (bounded by the transport
// error, far under the request budget), probes then evict the dead
// peer, and healing the partition re-admits it within a probe window.
func TestChaosPartitionMidRequestFailover(t *testing.T) {
	resetFaults(t)
	aigA, aigB := testAIG(t, 11), testAIG(t, 12)
	want := singleNodeScores(t, aigA, aigB, nil)

	tc := newTestCluster(t, 3, nil)
	a := tc.submit(tc.ids[0], aigA)
	b := tc.submit(tc.ids[0], aigB)
	owners, nonOwner := tc.pairRoles(a, b)

	// Partition the first owner: all node-to-node traffic to it fails.
	tc.trans.set(tc.hosts[owners[0]], true)

	start := time.Now()
	scores, _, err := tc.metrics(nonOwner, a, b, nil, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("metrics during partition: %v", err)
	}
	assertBitIdentical(t, scores, want, "failover answer")
	if elapsed > 5*time.Second {
		t.Fatalf("failover took %v, want bounded well under the request budget", elapsed)
	}

	// Probes must evict the partitioned peer from every other node's
	// routing table (FailureThreshold=2 at 25ms probes → well under 2s).
	waitFor(t, 2*time.Second, "eviction of "+owners[0], func() bool {
		return tc.nodes[nonOwner].table.IsDown(owners[0])
	})

	// Heal the partition: re-admission within a probe window.
	tc.trans.set(tc.hosts[owners[0]], false)
	waitFor(t, 2*time.Second, "re-admission of "+owners[0], func() bool {
		return !tc.nodes[nonOwner].table.IsDown(owners[0])
	})

	// The re-admitted owner serves fills again: clear the non-owner's
	// cache path by asking for a fresh pair routed to the same cluster.
	scores, _, err = tc.metrics(nonOwner, a, b, nil, nil)
	if err != nil {
		t.Fatalf("metrics after re-admission: %v", err)
	}
	assertBitIdentical(t, scores, want, "post-readmission answer")
}

// TestChaosTornFillReply: a torn (truncated) fill response from the
// first owner must be detected by the requester (JSON decode failure)
// and failed over — the answer still arrives, still bit-identical.
func TestChaosTornFillReply(t *testing.T) {
	resetFaults(t)
	aigA, aigB := testAIG(t, 13), testAIG(t, 14)
	want := singleNodeScores(t, aigA, aigB, nil)

	tc := newTestCluster(t, 3, nil)
	a := tc.submit(tc.ids[0], aigA)
	b := tc.submit(tc.ids[0], aigB)
	_, nonOwner := tc.pairRoles(a, b)

	faultinject.Arm(PointFillReply, faultinject.OnCall(1),
		faultinject.Fault{Mode: faultinject.ModeTornWrite})
	faultinject.Enable()

	scores, _, err := tc.metrics(nonOwner, a, b, nil, nil)
	if err != nil {
		t.Fatalf("metrics with torn fill reply: %v", err)
	}
	assertBitIdentical(t, scores, want, "answer after torn reply")
	if fires := faultinject.Fires(PointFillReply); fires != 1 {
		t.Fatalf("torn-write fault fired %d times, want 1", fires)
	}
	if n := tc.reg.Counter("cluster/fill_failures").Value(); n < 1 {
		t.Fatalf("fill_failures = %d, want >= 1 (the torn reply must count)", n)
	}
}

// TestChaosKillMidReplication: killing AIG replication entirely must
// not lose answers — an owner that never received the structures
// answers the fingerprint-only fill with a 404, gets both AIGER
// payloads in one resend and interns them, so replication repairs
// itself through the read path.
func TestChaosKillMidReplication(t *testing.T) {
	resetFaults(t)
	aigA, aigB := testAIG(t, 15), testAIG(t, 16)
	want := singleNodeScores(t, aigA, aigB, nil)

	faultinject.Arm(PointReplicateAIG, faultinject.Always(),
		faultinject.Fault{Mode: faultinject.ModeError})
	faultinject.Enable()

	// Submitted through the non-owner, the graphs stay there alone, so
	// the first owner it asks lacks both.
	tc := newTestCluster(t, 3, nil)
	owners, nonOwner := tc.pairRoles(fingerprint(t, aigA), fingerprint(t, aigB))
	a := tc.submit(nonOwner, aigA)
	b := tc.submit(nonOwner, aigB)
	first := tc.svcs[owners[0]]
	if first.HasAIG(a) || first.HasAIG(b) {
		t.Fatalf("owner %s holds a graph before any fill", owners[0])
	}

	scores, _, err := tc.metrics(nonOwner, a, b, nil, nil)
	if err != nil {
		t.Fatalf("metrics with replication dead: %v", err)
	}
	assertBitIdentical(t, scores, want, "answer with replication dead")
	if n := tc.reg.Counter("cluster/fill_payload_resends").Value(); n != 1 {
		t.Fatalf("fill_payload_resends = %d, want 1", n)
	}
	if !first.HasAIG(a) || !first.HasAIG(b) {
		t.Fatalf("owner %s lacks the pair after the resend — inline repair failed", owners[0])
	}
}

// TestChaosDeadOwnerDegradedLocal: with EVERY owner of a pair dead, a
// non-owner must still answer — degraded to a local compute — and the
// answer is still bit-identical (scoring is location-independent).
func TestChaosDeadOwnerDegradedLocal(t *testing.T) {
	resetFaults(t)
	aigA, aigB := testAIG(t, 17), testAIG(t, 18)
	want := singleNodeScores(t, aigA, aigB, nil)

	tc := newTestCluster(t, 3, nil)
	a := tc.submit(tc.ids[0], aigA)
	b := tc.submit(tc.ids[0], aigB)
	owners, nonOwner := tc.pairRoles(a, b)
	// The surviving node holds the structures itself (submitted before
	// the owners die) — the scenario is "owners dead, data present",
	// not "data lost".
	tc.submit(nonOwner, aigA)
	tc.submit(nonOwner, aigB)
	for _, id := range owners {
		tc.swaps[id].h.Store(&deadHandler)
		tc.trans.set(tc.hosts[id], true)
	}

	tc.reg.Reset()
	scores, _, err := tc.metrics(nonOwner, a, b, nil, nil)
	if err != nil {
		t.Fatalf("metrics with all owners dead: %v", err)
	}
	assertBitIdentical(t, scores, want, "degraded local answer")
	if n := tc.reg.Counter("cluster/degraded_local_computes").Value(); n != 1 {
		t.Fatalf("degraded_local_computes = %d, want 1", n)
	}
}

// TestChaosKillSourceMidHandoff: killing a handoff source (every AIG
// transfer it attempts errors) must abort the reconfiguration before
// the install — the epoch moves nowhere, the joiner keeps waiting, no
// key changes owner, and every answer stays bit-identical. Clearing
// the fault and re-proposing converges the same change.
func TestChaosKillSourceMidHandoff(t *testing.T) {
	resetFaults(t)
	type pair struct {
		a, b string
		want map[string]float64
	}
	tc := newTestCluster(t, 3, nil)
	var pairs []pair
	var fps []string
	for _, s := range [][2]int64{{71, 72}, {73, 74}} {
		a, b, want := tc.warmPair(s[0], s[1])
		pairs = append(pairs, pair{a, b, want})
		fps = append(fps, a, b)
	}
	tc.waitReplicated(fps...)
	for _, p := range pairs {
		tc.waitPairCached(p.a, p.b)
	}

	joiner := tc.addJoiner("n4", 2)
	req := client.ReconfigureRequest{Epoch: 2, Peers: tc.allPeers(), Joining: []string{"n4"}}
	sender := handoffAIGSender(t, tc, req, fps)

	faultinject.Arm(PointHandoffAIG, faultinject.Always(),
		faultinject.Fault{Mode: faultinject.ModeError})
	faultinject.Enable()

	if err := tc.nodes[sender].Reconfigure(req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "handoff abort", func() bool {
		return tc.reg.Counter("cluster/reconfigure_failures").Value() >= 1
	})

	// Abort-before-install: no member moved, the joiner still waits.
	old := []string{"n1", "n2", "n3"}
	for _, id := range old {
		if e := tc.nodes[id].Epoch(); e != 1 {
			t.Fatalf("%s installed epoch %d after an aborted handoff, want 1", id, e)
		}
	}
	if st := joiner.State(); st != "joining" {
		t.Fatalf("joiner state = %q after abort, want joining", st)
	}
	var keys []string
	for _, p := range pairs {
		keys = append(keys, p.a, p.b, ring.PairKey(p.a, p.b))
	}
	assertNoUnownedKey(t, tc, keys)
	for _, id := range old {
		for _, p := range pairs {
			scores, _, err := tc.metrics(id, p.a, p.b, nil, nil)
			if err != nil {
				t.Fatalf("metrics via %s after abort: %v", id, err)
			}
			assertBitIdentical(t, scores, p.want, "via "+id+" after aborted handoff")
		}
	}

	// Clear the fault: the same proposal now converges end to end.
	faultinject.Disable()
	tc.proposeAll(req, old...)
	tc.waitMembershipAt(2, tc.ids...)
	for _, p := range pairs {
		scores, _, err := tc.metrics("n4", p.a, p.b, nil, nil)
		if err != nil {
			t.Fatalf("metrics via joiner after retry: %v", err)
		}
		assertBitIdentical(t, scores, p.want, "via joiner after retried handoff")
	}
}

// TestChaosTornHandoffStream: tearing the network under an in-flight
// handoff stream (every connection to the joiner drops) must abort the
// reconfiguration with the failure recorded in the sender's progress
// counters and no epoch installed; healing the partition and retrying
// converges.
func TestChaosTornHandoffStream(t *testing.T) {
	resetFaults(t)
	tc := newTestCluster(t, 3, nil)
	a, b, want := tc.warmPair(81, 82)
	c, d, _ := tc.warmPair(83, 84)
	tc.waitReplicated(a, b, c, d)
	tc.waitPairCached(a, b)
	tc.waitPairCached(c, d)

	joiner := tc.addJoiner("n4", 2)
	req := client.ReconfigureRequest{Epoch: 2, Peers: tc.allPeers(), Joining: []string{"n4"}}
	sender := handoffAIGSender(t, tc, req, []string{a, b, c, d})

	// Tear the stream: the joiner's host drops every connection.
	tc.trans.set(tc.hosts["n4"], true)
	if err := tc.nodes[sender].Reconfigure(req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "handoff abort on torn stream", func() bool {
		return tc.reg.Counter("cluster/reconfigure_failures").Value() >= 1
	})
	if st := tc.nodes[sender].Status(); st.Handoff.Failed < 1 {
		t.Fatalf("sender handoff failed-counter = %d, want >= 1", st.Handoff.Failed)
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if e := tc.nodes[id].Epoch(); e != 1 {
			t.Fatalf("%s installed epoch %d after a torn handoff, want 1", id, e)
		}
	}
	if st := joiner.State(); st != "joining" {
		t.Fatalf("joiner state = %q after torn stream, want joining", st)
	}
	scores, _, err := tc.metrics("n1", a, b, nil, nil)
	if err != nil {
		t.Fatalf("metrics after torn handoff: %v", err)
	}
	assertBitIdentical(t, scores, want, "answer after torn handoff")

	// Heal and retry: the cluster converges and the joiner serves.
	tc.trans.set(tc.hosts["n4"], false)
	tc.proposeAll(req, "n1", "n2", "n3")
	tc.waitMembershipAt(2, tc.ids...)
	scores, _, err = tc.metrics("n4", a, b, nil, nil)
	if err != nil {
		t.Fatalf("metrics via joiner after heal: %v", err)
	}
	assertBitIdentical(t, scores, want, "via joiner after healed handoff")
}

// TestChaosPartitionDuringEpochInstall: one member is "partitioned"
// exactly at the commit point — its handoff streamed, its table never
// swapped. The rest of the cluster moves on; the behind member keeps
// answering bit-identically (its ring-routed RPCs are refused with the
// structured 409, which is also the repair signal), no key is ever
// unowned, and anti-entropy converges it without a restart.
func TestChaosPartitionDuringEpochInstall(t *testing.T) {
	resetFaults(t)
	tc := newTestCluster(t, 3, nil)
	a, b, want := tc.warmPair(91, 92)
	tc.waitReplicated(a, b)
	tc.waitPairCached(a, b)

	tc.addJoiner("n4", 2)
	req := client.ReconfigureRequest{Epoch: 2, Peers: tc.allPeers(), Joining: []string{"n4"}}

	faultinject.Arm(PointEpochInstall, faultinject.OnCall(1),
		faultinject.Fault{Mode: faultinject.ModeError})
	faultinject.Enable()
	tc.proposeAll(req, "n1", "n2", "n3")

	waitFor(t, 3*time.Second, "one failed epoch install", func() bool {
		return tc.reg.Counter("cluster/epoch_install_failures").Value() == 1
	})
	old := []string{"n1", "n2", "n3"}
	waitFor(t, 5*time.Second, "two members at epoch 2", func() bool {
		ahead := 0
		for _, id := range old {
			if tc.nodes[id].Epoch() == 2 {
				ahead++
			}
		}
		return ahead >= 2
	})

	// Mid-divergence: the invariant holds and every member answers.
	keys := []string{a, b, ring.PairKey(a, b)}
	assertNoUnownedKey(t, tc, keys)
	for _, id := range old {
		scores, _, err := tc.metrics(id, a, b, nil, nil)
		if err != nil {
			t.Fatalf("metrics via %s mid-divergence: %v", id, err)
		}
		assertBitIdentical(t, scores, want, "via "+id+" mid-divergence")
	}

	// Anti-entropy: announces push the new membership, and any ring
	// -routed RPC the behind member sends is refused with the 409 it
	// adopts from. Keep routing fresh pairs through it until it
	// catches up.
	deadline := time.Now().Add(8 * time.Second)
	seed := int64(9100)
	for {
		behind := ""
		for _, id := range old {
			if tc.nodes[id].Epoch() != 2 {
				behind = id
			}
		}
		if behind == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never adopted epoch 2", behind)
		}
		fa := tc.submit(behind, testAIG(t, seed))
		fb := tc.submit(behind, testAIG(t, seed+1))
		seed += 2
		if _, _, err := tc.metrics(behind, fa, fb, []string{"VEO"}, nil); err != nil {
			t.Fatalf("metrics via behind member %s: %v", behind, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	tc.waitMembershipAt(2, tc.ids...)
	assertNoUnownedKey(t, tc, keys)
	for _, id := range tc.ids {
		scores, _, err := tc.metrics(id, a, b, nil, nil)
		if err != nil {
			t.Fatalf("metrics via %s after convergence: %v", id, err)
		}
		assertBitIdentical(t, scores, want, "via "+id+" after convergence")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
