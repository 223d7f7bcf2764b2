package cluster

import (
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/cluster/ring"
	"repro/internal/faultinject"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// Fault points of the membership engine, one instrumentation site each.
const (
	// PointHandoffAIG and PointHandoffResult fail individual handoff
	// transfers — the kill-source-mid-handoff and torn-stream chaos
	// scenarios.
	PointHandoffAIG    = "cluster/handoff_aig"
	PointHandoffResult = "cluster/handoff_result"
	// PointEpochInstall fails the table install after a successful
	// handoff — the partition-during-epoch-install chaos scenario: the
	// keys were streamed but this node keeps routing by the old ring
	// until anti-entropy (announce / 409 repair) converges it.
	PointEpochInstall = "cluster/epoch_install"
)

// handoffKeysPerSecond is the pacing estimate behind drain-mode
// Retry-After hints: how many key transfers a node is assumed to
// complete per second. Deliberately conservative — a hint that is too
// high makes refused clients hammer a still-busy node.
const handoffKeysPerSecond = 64

// handoffProgress tracks the current (or, once inactive, the last)
// handoff run. Counters are atomics so Status can read them while the
// run is streaming.
type handoffProgress struct {
	active              atomic.Bool
	total, sent, failed atomic.Int64
}

func (p *handoffProgress) begin(total int) {
	p.total.Store(int64(total))
	p.sent.Store(0)
	p.failed.Store(0)
	p.active.Store(true)
}

func (p *handoffProgress) snapshot() client.HandoffProgress {
	return client.HandoffProgress{
		Active: p.active.Load(),
		Total:  p.total.Load(),
		Sent:   p.sent.Load(),
		Failed: p.failed.Load(),
	}
}

// drainRetrySeconds estimates how long a refused client should wait
// while this node drains: the remaining handoff backlog at the assumed
// transfer rate. Once the handoff is done (or none is running) the
// successors already hold everything — retry (elsewhere) immediately.
func (n *Node) drainRetrySeconds() int {
	const capSeconds = 30
	if !n.handoff.active.Load() {
		return 1
	}
	remaining := n.handoff.total.Load() - n.handoff.sent.Load()
	if remaining < 0 {
		remaining = 0
	}
	secs := 1 + int(remaining)/handoffKeysPerSecond
	if secs > capSeconds {
		secs = capSeconds
	}
	return secs
}

// downSet snapshots the health exclusions as a plain map for plan
// building.
func (n *Node) downSet() map[string]bool {
	out := make(map[string]bool)
	for _, id := range n.table.Down() {
		out[id] = true
	}
	return out
}

// primaryAliveSender reports whether this node is the one member
// responsible for streaming key during a reconfiguration: the first
// alive owner under the old ring. Every old member runs the same plan
// over the same ring, so exactly one alive node streams each key —
// no duplicate transfers, and a dead primary's keys are covered by the
// next replica.
func primaryAliveSender(self string, r *ring.Ring, key string, down map[string]bool) bool {
	for _, id := range r.Owners(key) {
		if down[id] {
			continue
		}
		return id == self
	}
	return false
}

// reconfigureTargets is the target rule of a prev→next membership
// change: a key this node is the primary alive sender of goes to the
// owners it gains under next (ring.MovedOwners — ~1/N of the key
// space) plus every joining member that owns it under next, regardless
// of the diff (a rejoining member's ring positions are unchanged but
// its stores are empty).
func reconfigureTargets(prev, next *ring.Ring, self string, down map[string]bool, joining []string) func(key string) []string {
	isJoining := make(map[string]bool, len(joining))
	for _, id := range joining {
		isJoining[id] = true
	}
	return func(key string) []string {
		if !primaryAliveSender(self, prev, key, down) {
			return nil
		}
		// Self owns key under prev, so MovedOwners never lists it.
		out := ring.MovedOwners(prev, next, key)
		for _, id := range next.Owners(key) {
			if isJoining[id] && id != self && !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
		return out
	}
}

// drainTargets is the target rule of a departing node: a key it owns
// under cur goes to the member that inherits its ownership slot once
// it is excluded from the ring walk — the alive owners without self,
// minus the normal owner set.
func drainTargets(cur *ring.Ring, self string, down map[string]bool) func(key string) []string {
	gone := map[string]bool{self: true}
	for id := range down {
		gone[id] = true
	}
	return func(key string) []string {
		owners := cur.Owners(key)
		if !slices.Contains(owners, self) {
			return nil
		}
		var out []string
		for _, id := range cur.OwnersAlive(key, gone) {
			if !slices.Contains(owners, id) {
				out = append(out, id)
			}
		}
		return out
	}
}

// handoffPlan enumerates what this node must stream for a membership
// operation: one transfer for every locally held key — stored AIG or
// cached pair result — that targets assigns members to.
func (n *Node) handoffPlan(targets func(key string) []string) []transfer {
	var plan []transfer
	for _, fp := range n.svc.StoredFingerprints() {
		to := targets(fp)
		if len(to) == 0 {
			continue
		}
		payload, err := n.svc.AIGERFor(fp)
		if err != nil {
			continue // evicted since enumeration; nothing to stream
		}
		plan = append(plan, transfer{aiger: payload, targets: to})
	}
	for _, pr := range n.svc.CachedPairResults() {
		if to := targets(ring.PairKey(pr.A, pr.B)); len(to) > 0 {
			plan = append(plan, transfer{a: pr.A, b: pr.B, scores: pr.Scores, targets: to})
		}
	}
	return plan
}

// runHandoff streams a plan. urls must resolve every target (it may
// include members not yet in the view — a joining node). In
// abortOnError mode (reconfigure) the first failed transfer aborts the
// run: installing the new ring anyway would hand ownership to nodes
// that never got the keys. In best-effort mode (drain) failures are
// counted and skipped: the successor recomputes bit-identically on
// demand, the copy is an optimization.
//
// Outcomes never feed peer health (peerOK/peerFail): a rejoining member
// keeps its ID and URL, so it is a standing peer its peers evicted
// while it joins. A put re-admitting it to routing would let an
// equal-epoch fill activate it before its backfill finished; only a
// probe, which succeeds once its healthz stops answering 503, may.
func (n *Node) runHandoff(ctx context.Context, plan []transfer, urls map[string]string, abortOnError bool) error {
	n.handoff.begin(len(plan))
	defer n.handoff.active.Store(false)
	extra := make(map[string]*client.Client)
	for _, t := range plan {
		if err := ctx.Err(); err != nil {
			n.handoff.failed.Add(1)
			return err
		}
		var err error
		if t.aiger != nil {
			err = faultinject.HitCtx(ctx, PointHandoffAIG)
		} else {
			err = faultinject.HitCtx(ctx, PointHandoffResult)
		}
		for i := 0; err == nil && i < len(t.targets); i++ {
			var c *client.Client
			if c, err = n.handoffClient(extra, urls, t.targets[i]); err == nil {
				err = t.put(ctx, c)
			}
		}
		if err != nil {
			n.handoff.failed.Add(1)
			telemetry.Add("cluster/handoff_failures", 1)
			if abortOnError {
				return err
			}
			continue
		}
		n.handoff.sent.Add(1)
		telemetry.Add("cluster/handoff_keys", 1)
	}
	return nil
}

// handoffClient resolves a transfer target: the standing peer client
// when the target is already in the view, otherwise one client per
// run built from the proposed membership (a joining node is a target
// before it is a member).
func (n *Node) handoffClient(extra map[string]*client.Client, urls map[string]string, id string) (*client.Client, error) {
	if c := n.view().peers[id]; c != nil {
		return c, nil
	}
	if c := extra[id]; c != nil {
		return c, nil
	}
	c, err := n.newPeerClient(urls[id])
	if err != nil {
		return nil, err
	}
	extra[id] = c
	return c, nil
}

// installEpoch is the commit point of a reconfiguration: the handoff
// is complete, swap the routing table. The fault point simulates a
// node partitioned away exactly here — keys streamed, table not
// installed — which anti-entropy must repair.
func (n *Node) installEpoch(epoch uint64, urls map[string]string) error {
	if err := faultinject.HitCtx(n.baseCtx, PointEpochInstall); err != nil {
		telemetry.Add("cluster/epoch_install_failures", 1)
		return err
	}
	return n.installMembership(epoch, urls)
}
