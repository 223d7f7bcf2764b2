package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cluster/ring"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// Dynamic membership. The static parts of the original design — ring
// placement as a pure function of the member list, health gating who
// is asked but never who owns — stay; what moves is the member list
// itself, under a monotonically increasing epoch:
//
//   - Every peer RPC and gateway request carries the sender's epoch
//     (client.EpochHeader). A ring-routed request at the wrong epoch is
//     refused with a structured 409 carrying the answering node's
//     membership, so the refused side can adopt and re-route — epochs
//     are self-healing, not just self-protecting.
//   - A membership change (Reconfigure) streams exactly the keys whose
//     ownership moves (ring.MovedOwners — ~1/N of the key space) to
//     their new owners *before* installing the new table, so at every
//     instant every key has at least one owner that holds (or can
//     recompute) it: no key is ever unowned.
//   - A departing node drains: it pre-copies its owned keys to their
//     successors, leaves routing (healthz 503 + a draining announce),
//     and keeps answering peer traffic until the copy is done.
//   - A new node joins receiving-only (external API 503) and activates
//     when the first announce or peer RPC arrives at its own epoch —
//     proof that an old member finished handing off to it.
//
// All of it leans on the same invariant as the static design: scores
// are a pure function of (pair, metric), so a key that a handoff
// missed is recomputed bit-identically wherever it lands.

// Node lifecycle states.
const (
	stateActive int32 = iota
	stateJoining
	stateDraining
)

func stateName(s int32) string {
	switch s {
	case stateJoining:
		return "joining"
	case stateDraining:
		return "draining"
	default:
		return "active"
	}
}

// memberView is one epoch's immutable peer wiring: the clients,
// instruments, and failure counters for every member except self. Hot
// paths load it once per operation; a reconfiguration swaps the whole
// view atomically, reusing entries for retained members so breaker
// state and failure counts survive the change.
type memberView struct {
	urls     map[string]string         // every member incl. self
	peers    map[string]*client.Client // every member except self
	peerIDs  []string                  // sorted, excludes self
	pm       map[string]peerInstruments
	failures map[string]*atomic.Int64
}

// view returns the current member wiring. Callers must nil-guard map
// lookups: a peer can leave between loading the view and using it.
func (n *Node) view() *memberView { return n.members.Load() }

// buildView wires clients for a membership, carrying over the client,
// instruments, and failure counter of every member whose URL is
// unchanged from prev.
func (n *Node) buildView(urls map[string]string, prev *memberView) (*memberView, error) {
	v := &memberView{
		urls:     make(map[string]string, len(urls)),
		peers:    make(map[string]*client.Client, len(urls)-1),
		pm:       make(map[string]peerInstruments, len(urls)-1),
		failures: make(map[string]*atomic.Int64, len(urls)-1),
	}
	ids := make([]string, 0, len(urls))
	for id := range urls {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		v.urls[id] = urls[id]
		if id == n.cfg.NodeID {
			continue
		}
		v.peerIDs = append(v.peerIDs, id)
		if prev != nil && prev.urls[id] == urls[id] && prev.peers[id] != nil {
			v.peers[id] = prev.peers[id]
			v.pm[id] = prev.pm[id]
			v.failures[id] = prev.failures[id]
			continue
		}
		c, err := n.newPeerClient(urls[id])
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", id, err)
		}
		v.peers[id] = c
		v.pm[id] = newPeerInstruments(id)
		v.failures[id] = &atomic.Int64{}
	}
	return v, nil
}

// installMembership swaps to a new membership under a strictly greater
// epoch: wire the peers first, then install the epoch-tagged ring, so
// any lookup that sees the new ring also finds clients for its
// members. Refuses stale epochs. No network I/O happens under the
// lock.
func (n *Node) installMembership(epoch uint64, urls map[string]string) error {
	n.memberMu.Lock()
	defer n.memberMu.Unlock()
	if epoch <= n.table.Epoch() {
		return fmt.Errorf("cluster: epoch %d is not newer than installed %d", epoch, n.table.Epoch())
	}
	ids := make([]string, 0, len(urls))
	for id := range urls {
		ids = append(ids, id)
	}
	r, err := ring.New(ids, n.cfg.VNodes, n.cfg.Replication)
	if err != nil {
		return err
	}
	v, err := n.buildView(urls, n.view())
	if err != nil {
		return err
	}
	n.members.Store(v)
	if !n.table.Install(epoch, r) {
		return fmt.Errorf("cluster: concurrent install won epoch %d", n.table.Epoch())
	}
	telemetry.Add("cluster/epoch_installs", 1)
	n.logMembershipEvent("epoch_install", epoch, len(ids))
	return nil
}

// State returns the node's lifecycle state name.
func (n *Node) State() string { return stateName(n.state.Load()) }

// Epoch returns the installed membership epoch.
func (n *Node) Epoch() uint64 { return n.table.Epoch() }

// activate flips a joining node to active: its backfill has arrived
// (an old member announced, or sent a ring-routed RPC, at this node's
// epoch — either only happens after that member installed the ring
// that includes us, which handoff-before-install guarantees comes
// after our keys did).
func (n *Node) activate() {
	if n.state.CompareAndSwap(stateJoining, stateActive) {
		telemetry.Add("cluster/join_activations", 1)
		n.logMembershipEvent("join_activated", n.table.Epoch(), len(n.view().urls))
	}
}

// observeEpoch drives membership convergence from an incoming signal
// (announce body, or a peer RPC's epoch header): equal epochs activate
// a joining node; a higher epoch with a membership view is adopted.
func (n *Node) observeEpoch(epoch uint64, members map[string]string) {
	local := n.table.Epoch()
	switch {
	case epoch == local:
		n.activate()
	case epoch > local && len(members) > 0:
		// Adopting mid-reconfigure would race our own install; the
		// in-flight reconfigure ends at this epoch or aborts, either
		// way convergence retries on the next signal.
		if n.reconfiguring.Load() {
			return
		}
		if err := n.installMembership(epoch, members); err == nil {
			telemetry.Add("cluster/epoch_adoptions", 1)
			n.activate()
		}
	}
}

// resolveEpochConflict is the sender-side half of convergence: a peer
// refused us with a 409. If the peer is ahead, adopt its membership;
// if it is behind, push ours so it catches up. ctx is the refused
// request's context — the repair push deliberately detaches from it
// (the caller's answer must not wait on repair; the push is bounded by
// the node lifetime instead), so only the synchronous adopt path runs
// under it.
func (n *Node) resolveEpochConflict(ctx context.Context, se *client.StaleEpochError) {
	if ctx.Err() != nil {
		return
	}
	local := n.table.Epoch()
	if se.Epoch > local {
		n.observeEpoch(se.Epoch, se.Members)
		return
	}
	if se.Epoch >= local {
		return
	}
	v := n.view()
	c := v.peers[se.Node]
	if c == nil {
		return
	}
	req := client.AnnounceRequest{Node: n.cfg.NodeID, Epoch: local, Members: v.urls}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ctx, cancel := context.WithTimeout(n.baseCtx, pushTimeout)
		defer cancel()
		if err := c.ClusterAnnounce(ctx, req); err == nil {
			telemetry.Add("cluster/epoch_repairs", 1)
		}
	}()
}

// announceAll pushes a membership notification to every current peer,
// best-effort and bounded by the node lifetime.
func (n *Node) announceAll(req client.AnnounceRequest) {
	v := n.view()
	for _, id := range v.peerIDs {
		c := v.peers[id]
		if c == nil {
			continue
		}
		n.wg.Add(1)
		go func(c *client.Client) {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(n.baseCtx, pushTimeout)
			defer cancel()
			if err := c.ClusterAnnounce(ctx, req); err != nil {
				telemetry.Add("cluster/announce_failures", 1)
			}
		}(c)
	}
}

// Reconfigure validates a membership-change proposal and runs it
// asynchronously: plan the handoff, stream the moved keys, install the
// new table, announce. Returns once the change is admitted (the caller
// polls Status for completion). Only one membership operation runs at
// a time.
func (n *Node) Reconfigure(req client.ReconfigureRequest) error {
	if req.Epoch <= n.table.Epoch() {
		return fmt.Errorf("cluster: proposed epoch %d is not newer than installed %d", req.Epoch, n.table.Epoch())
	}
	if len(req.Peers) == 0 {
		return fmt.Errorf("cluster: reconfigure needs a non-empty peer set")
	}
	if _, ok := req.Peers[n.cfg.NodeID]; !ok {
		return fmt.Errorf("cluster: node %s is not in the proposed membership (drain it instead)", n.cfg.NodeID)
	}
	if n.state.Load() == stateDraining {
		return fmt.Errorf("cluster: node is draining")
	}
	if !n.reconfiguring.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: a membership operation is already in progress")
	}
	telemetry.Add("cluster/reconfigures", 1)
	n.logMembershipEvent("reconfigure_admitted", req.Epoch, len(req.Peers))
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.reconfiguring.Store(false)
		n.runReconfigure(req)
	}()
	return nil
}

// runReconfigure is the async body of a membership change: handoff
// first, install only if every transfer succeeded (abort-on-error —
// installing a ring whose new owners are missing keys would break the
// no-unowned-key invariant for cached results), then announce so
// behind peers and the joining members converge.
func (n *Node) runReconfigure(req client.ReconfigureRequest) {
	ctx, cancel := context.WithCancel(n.baseCtx)
	defer cancel()
	prev := n.table.Ring()
	ids := make([]string, 0, len(req.Peers))
	for id := range req.Peers {
		ids = append(ids, id)
	}
	next, err := ring.New(ids, n.cfg.VNodes, n.cfg.Replication)
	if err != nil {
		telemetry.Add("cluster/reconfigure_failures", 1)
		return
	}
	plan := n.handoffPlan(reconfigureTargets(prev, next, n.cfg.NodeID, n.downSet(), req.Joining))
	if err := n.runHandoff(ctx, plan, req.Peers, true); err != nil {
		telemetry.Add("cluster/reconfigure_failures", 1)
		n.logMembershipEvent("reconfigure_aborted", req.Epoch, len(req.Peers))
		return
	}
	if err := n.installEpoch(req.Epoch, req.Peers); err != nil {
		telemetry.Add("cluster/reconfigure_failures", 1)
		return
	}
	n.announceAll(client.AnnounceRequest{
		Node: n.cfg.NodeID, Epoch: req.Epoch, Members: n.view().urls,
	})
}

// StartDrain begins this node's departure: leave routing immediately
// (healthz 503 plus a draining announce, so peers evict us without
// waiting out probe failures), then pre-copy every key we own to the
// member that inherits it when we are gone. Peer endpoints keep
// answering throughout, so in-flight and routed-before-eviction
// requests complete normally. Best-effort: a failed copy is recorded,
// not fatal — the successor recomputes bit-identically on demand.
func (n *Node) StartDrain() error {
	if !n.reconfiguring.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: a membership operation is already in progress")
	}
	if n.state.Load() != stateActive {
		n.reconfiguring.Store(false)
		if n.state.Load() == stateDraining {
			return nil // drain is idempotent
		}
		return fmt.Errorf("cluster: node is %s, not active", n.State())
	}
	// Only StartDrain, under reconfiguring, leaves the active state. The
	// handoff is marked running, its counters reset, before the flip, so
	// a Status that sees draining never shows the previous run's
	// counters; runHandoff sets the total once it knows the plan.
	n.handoff.begin(0)
	n.state.Store(stateDraining)
	telemetry.Add("cluster/drains", 1)
	n.logMembershipEvent("drain_started", n.table.Epoch(), len(n.view().urls))
	n.announceAll(client.AnnounceRequest{Node: n.cfg.NodeID, Epoch: n.table.Epoch(), Draining: true})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.reconfiguring.Store(false)
		ctx, cancel := context.WithCancel(n.baseCtx)
		defer cancel()
		plan := n.handoffPlan(drainTargets(n.table.Ring(), n.cfg.NodeID, n.downSet()))
		if err := n.runHandoff(ctx, plan, n.view().urls, false); err != nil {
			telemetry.Add("cluster/drain_handoff_failures", 1)
		}
		n.logMembershipEvent("drain_handoff_done", n.table.Epoch(), len(n.view().urls))
	}()
	return nil
}

// Status assembles the node's membership/handoff status — the wire
// answer of GET /v1/cluster/status and the aigw status surface.
func (n *Node) Status() client.StatusView {
	v := n.view()
	sv := client.StatusView{
		Node:     n.cfg.NodeID,
		State:    n.State(),
		Epoch:    n.table.Epoch(),
		Members:  v.urls,
		Down:     n.table.Down(),
		Failures: make(map[string]int, len(v.peerIDs)),
		Handoff:  n.handoff.snapshot(),
	}
	if sv.Down == nil {
		sv.Down = []string{}
	}
	for _, id := range v.peerIDs {
		if f := v.failures[id]; f != nil {
			sv.Failures[id] = int(f.Load())
		}
		if c := v.peers[id]; c != nil {
			if open := c.OpenBreakers(); len(open) > 0 {
				if sv.Breakers == nil {
					sv.Breakers = make(map[string][]string)
				}
				sv.Breakers[id] = open
			}
		}
	}
	return sv
}

func (n *Node) logMembershipEvent(event string, epoch uint64, members int) {
	if n.cfg.Events == nil {
		return
	}
	n.cfg.Events.Log(event, map[string]any{
		"node":    n.cfg.NodeID,
		"epoch":   epoch,
		"members": members,
	})
}
