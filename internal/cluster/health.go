package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Peer health has two inputs feeding one consecutive-failure counter
// per peer:
//
//   - the periodic prober below (raw /healthz probes, deliberately
//     bypassing the client's retry/breaker machinery so probe cadence
//     never depends on breaker cooldowns), which also folds in the
//     client's breaker state — an open breaker is the symptom of a
//     peer failing *real* traffic, and counts like a failed probe;
//   - inline outcomes from fill and replication calls (peerFail /
//     peerOK in cluster.go), so a peer dying under load is evicted
//     within FailureThreshold failed requests even if the next probe
//     tick is far away.
//
// Crossing FailureThreshold evicts the peer from the routing table
// (ring ownership is untouched — replicas serve its ranges); the first
// success re-admits it immediately. Both transitions are JSONL events.

// probeLoop drives the prober until Close.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.baseCtx.Done():
			return
		case <-t.C:
			// The member list is re-read every tick, so a membership
			// change takes effect at the next round: removed peers
			// stop being probed, added peers start.
			for _, id := range n.view().peerIDs {
				n.probe(id)
			}
		}
	}
}

// probe checks one peer once: liveness endpoint plus breaker fold. The
// probe derives from the node-lifetime context, so a peer that stops
// answering mid-probe cannot delay Close past RPC cancellation.
func (n *Node) probe(id string) {
	v := n.view()
	c := v.peers[id]
	if c == nil {
		return // peer left between enumeration and probe
	}
	ctx, cancel := context.WithTimeout(n.baseCtx, n.cfg.ProbeTimeout)
	defer cancel()
	err := faultinject.HitCtx(ctx, PointProbe)
	if err == nil {
		err = c.Healthz(ctx)
	}
	if err == nil {
		if open := c.OpenBreakers(); len(open) > 0 {
			err = fmt.Errorf("open breakers: %v", open)
		}
	}
	if err != nil {
		if n.baseCtx.Err() != nil {
			return // probe aborted by Close, not by the peer
		}
		telemetry.Add(v.pm[id].probeFailures, 1)
		n.peerFail(id)
		return
	}
	n.peerOK(id)
}

// peerFail records one failed interaction with a peer; crossing the
// threshold evicts it from routing.
func (n *Node) peerFail(id string) {
	v := n.view()
	f := v.failures[id]
	if f == nil {
		return // peer already left the membership
	}
	c := f.Add(1)
	if int(c) < n.cfg.FailureThreshold {
		return
	}
	if n.table.SetDown(id, true) {
		telemetry.Add(v.pm[id].evictions, 1)
		telemetry.Add("cluster/peer_evictions", 1)
		n.logPeerEvent("peer_down", id, int(c))
	}
}

// peerOK records one successful interaction; a down peer is re-admitted
// immediately.
func (n *Node) peerOK(id string) {
	v := n.view()
	if f := v.failures[id]; f != nil {
		f.Store(0)
	}
	if n.table.SetDown(id, false) {
		if pm, ok := v.pm[id]; ok {
			telemetry.Add(pm.readmissions, 1)
		}
		telemetry.Add("cluster/peer_readmissions", 1)
		n.logPeerEvent("peer_up", id, 0)
	}
}

func (n *Node) logPeerEvent(event, id string, failures int) {
	if n.cfg.Events == nil {
		return
	}
	n.cfg.Events.Log(event, map[string]any{
		"node":     n.cfg.NodeID,
		"peer":     id,
		"failures": failures,
	})
}
