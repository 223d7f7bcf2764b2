// Package cluster turns a set of aigd daemons into one logical
// scoring service with dynamic membership: every node starts from a
// seed peer list, a consistent-hash ring (internal/cluster/ring)
// assigns each fingerprint pair to R owner nodes, and the member list
// itself evolves under a monotonically increasing epoch (see
// membership.go for the reconfigure / drain / join machinery).
//
// The design leans entirely on one invariant from internal/service:
// scores are a pure function of (fingerprint pair, metric), because
// per-graph profiles are seeded from the structural fingerprint. That
// makes every cross-node data movement sound — a result computed on
// any node is bit-identical to what any other node would compute, so
// caches can be filled from peers, results can be replicated ahead of
// demand, and a dead owner's range can be served by a replica without
// any answer changing.
//
// Request flow for POST /v1/metrics on a node:
//
//   - the node is a static owner of the pair → compute locally (the
//     single-node path: cache, singleflight, bounded pool), then
//     replicate the result to the other owners asynchronously;
//   - otherwise → local cache, then peer fill from the first alive
//     owner (singleflight-deduped per pair so concurrent fan-in costs
//     one peer round trip), then — all owners unreachable — a degraded
//     local compute. The answer is always produced; health only moves
//     *where*.
//
// Within one epoch, ownership is static: per-peer health (periodic
// probes plus inline failure counting plus client breaker state) gates
// which owners are *asked*, never which owners *are*. A downed node
// keeps its ranges and re-enters them unchanged when probes re-admit
// it, so flapping health cannot migrate data. Data migrates only on an
// explicit epoch change, and then only after the moved keys were
// streamed to their new owners (handoff-before-install).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/ring"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Fault points of the cluster layer, one instrumentation site each.
const (
	// PointFill guards the peer-fill fan-out: a fired fault skips the
	// owners entirely and forces the degraded local compute.
	PointFill = "cluster/fill"
	// PointFillReply wraps the fill response body on the owner —
	// ModeTornWrite serves a decodable-length prefix, exercising the
	// requester's failover on torn peer responses.
	PointFillReply = "cluster/fill_reply"
	// PointReplicateAIG and PointReplicateResult fail the async
	// replication fan-outs (kill-mid-replication chaos).
	PointReplicateAIG    = "cluster/replicate_aig"
	PointReplicateResult = "cluster/replicate_result"
	// PointProbe fails health probes, forcing eviction of a live peer.
	PointProbe = "cluster/probe"
)

// Config sizes a Node. NodeID and Peers are required; everything else
// has a production default.
type Config struct {
	// NodeID is this node's member name; it must be a key of Peers.
	NodeID string
	// Peers maps every member ID (this node included) to its base URL
	// — the seed membership. It must agree with the other members'
	// view at Epoch (ring placement depends only on the sorted ID
	// list); afterwards membership evolves through Reconfigure and
	// announces.
	Peers map[string]string
	// Epoch is the membership epoch Peers corresponds to (default 1).
	// A node rejoining a cluster that has moved past epoch 1 must boot
	// at the cluster's current epoch or it will refuse its peers'
	// traffic.
	Epoch uint64
	// Join marks this node as a fresh member entering an existing
	// cluster: it boots receiving-only (external API and healthz
	// answer 503) and activates when the first announce or peer RPC
	// arrives at its own epoch — proof that the old members installed
	// the ring that includes it, which happens only after their
	// handoff streamed this node's keys to it.
	Join bool
	// Replication is the number of owner nodes per key (default
	// ring.DefaultReplication); VNodes the virtual nodes per member
	// (default ring.DefaultVNodes). Must match cluster-wide.
	Replication int
	VNodes      int

	// ProbeInterval paces the health prober (default 500ms);
	// ProbeTimeout bounds one probe (default 1s). Worst-case failover
	// detection latency is FailureThreshold probe rounds.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailureThreshold consecutive failures (probe or inline) evict a
	// peer from routing (default 3).
	FailureThreshold int

	// PeerAttemptTimeout bounds each HTTP attempt against a peer
	// (default 2s) — a stalled peer costs one attempt, not the
	// caller's deadline. PeerMaxAttempts bounds tries per peer call
	// (default 2: the ring's replicas are the real retry budget).
	PeerAttemptTimeout time.Duration
	PeerMaxAttempts    int

	// Events, when set, receives peer_down/peer_up JSONL events.
	Events *telemetry.EventLogger
	// HTTPClient, when set, carries peer traffic (tests inject
	// partitionable transports); nil uses http.DefaultClient.
	HTTPClient *http.Client
}

// Peer client backoff pacing, shared by standing peers and ephemeral
// handoff targets.
const (
	peerBaseBackoff = 25 * time.Millisecond
	peerMaxBackoff  = 250 * time.Millisecond
)

// pushTimeout bounds one background push — a replication fan-out or a
// membership announce — on top of the node lifetime.
const pushTimeout = 10 * time.Second

func (c Config) withDefaults() Config {
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.Replication <= 0 {
		c.Replication = ring.DefaultReplication
	}
	if c.VNodes <= 0 {
		c.VNodes = ring.DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.PeerAttemptTimeout <= 0 {
		c.PeerAttemptTimeout = 2 * time.Second
	}
	if c.PeerMaxAttempts <= 0 {
		c.PeerMaxAttempts = 2
	}
	return c
}

// Node is one cluster member wrapped around a service.Server. Create
// it with New (which installs the routing hooks into the server),
// mount Handler, and Close it before closing the server.
type Node struct {
	cfg   Config
	svc   *service.Server
	table *ring.Table

	// members is the current epoch's peer wiring (clients,
	// instruments, failure counters); memberMu serializes writers
	// (installMembership) — readers load the pointer lock-free.
	members  atomic.Pointer[memberView]
	memberMu sync.Mutex

	// state is the lifecycle state (active / joining / draining);
	// reconfiguring admits at most one membership operation at a time
	// (a CAS guard, not a mutex — the operation spans network I/O).
	state         atomic.Int32
	reconfiguring atomic.Bool
	handoff       handoffProgress

	// fills deduplicates concurrent fills per (pair, metrics): under
	// concurrent fan-in for one pair, the whole node issues one peer
	// round trip, and — because the owner singleflights its own
	// computation — the whole *cluster* computes each (pair, metric)
	// once. A follower counts as a dedup whether it received the
	// leader's scores or its ctx ended first.
	fills *service.FlightGroup[map[string]float64]

	// baseCtx is the node-lifetime context: every background activity —
	// health probes, replication fan-outs — derives from it, so Close
	// (which cancels it) bounds all of them instead of waiting out their
	// individual timeouts.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// New wires a Node around svc: it installs the cluster hooks (pair
// routing + intern replication) and starts the health prober. It must
// run before svc.Handler starts serving.
func New(svc *service.Server, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: Config.NodeID is required")
	}
	if _, ok := cfg.Peers[cfg.NodeID]; !ok {
		return nil, fmt.Errorf("cluster: NodeID %q is not in Peers", cfg.NodeID)
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	table, err := ring.NewTableAt(ids, cfg.VNodes, cfg.Replication, cfg.Epoch)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		svc:   svc,
		table: table,
		fills: service.NewFlightGroup[map[string]float64]("cluster/fill_dedups", "cluster/fill_dedups"),
	}
	if cfg.Join {
		n.state.Store(stateJoining)
	}
	//lint:ignore ctxflow the node base context is the member-lifetime root, canceled in Close — probes and replication derive from it
	n.baseCtx, n.baseCancel = context.WithCancel(context.Background())
	v, err := n.buildView(cfg.Peers, nil)
	if err != nil {
		return nil, err
	}
	n.members.Store(v)
	svc.SetClusterHooks(n.routePair, n.onIntern)
	svc.SetDrainRetryHint(n.drainRetrySeconds)
	n.wg.Add(1)
	go n.probeLoop()
	return n, nil
}

// stampEpoch writes this node's installed epoch onto an outgoing peer
// request — read at send time, so a client surviving a reconfiguration
// stamps the new epoch on its next call.
func (n *Node) stampEpoch(h http.Header) {
	h.Set(client.EpochHeader, strconv.FormatUint(n.table.Epoch(), 10))
}

// newPeerClient builds the client for one peer URL: a standing member
// or a handoff target that is not a member yet.
func (n *Node) newPeerClient(url string) (*client.Client, error) {
	return client.New(client.Config{
		BaseURL:        url,
		HTTPClient:     n.cfg.HTTPClient,
		MaxAttempts:    n.cfg.PeerMaxAttempts,
		AttemptTimeout: n.cfg.PeerAttemptTimeout,
		BaseBackoff:    peerBaseBackoff,
		MaxBackoff:     peerMaxBackoff,
		Headers:        n.stampEpoch,
	})
}

// Close cancels the node-lifetime context — stopping the prober and
// aborting any in-flight replication fan-out — and waits for every
// background goroutine to exit. Shutdown latency is bounded by RPC
// cancellation, not by pushTimeout.
func (n *Node) Close() {
	n.stopOnce.Do(n.baseCancel)
	n.wg.Wait()
}

// ownsKey reports whether this node is one of the key's static owners.
func (n *Node) ownsKey(owners []string) bool {
	for _, id := range owners {
		if id == n.cfg.NodeID {
			return true
		}
	}
	return false
}

// routePair is the PairRouter installed into the service: it resolves
// one pair-scores request cluster-wide. names is the canonical
// metric-name list (the service resolved it before routing).
func (n *Node) routePair(ctx context.Context, fpA, fpB string, names []string) (map[string]float64, error) {
	if err := n.ensureLocal(ctx, fpA); err != nil {
		return nil, err
	}
	if err := n.ensureLocal(ctx, fpB); err != nil {
		return nil, err
	}
	key := ring.PairKey(fpA, fpB)
	// Ownership is read from the static ring, never the health-gated
	// table: a down owner is still the owner, health only decides who
	// gets *asked* below.
	owners := n.table.Ring().Owners(key)
	if n.ownsKey(owners) {
		scores, err := n.svc.ScorePairLocal(ctx, fpA, fpB, names)
		if err == nil {
			n.replicate(ctx, transfer{a: fpA, b: fpB, scores: scores, targets: n.aliveTargets(owners)})
		}
		return scores, err
	}
	if scores, ok := n.svc.PairFromCache(ctx, fpA, fpB, names); ok {
		telemetry.Add("cluster/route_cache_hits", 1)
		return scores, nil
	}
	return n.fill(ctx, key, fpA, fpB, names)
}

// fill resolves a pair this node does not own with one deduplicated
// peer fill per (pair, metrics).
func (n *Node) fill(ctx context.Context, key, fpA, fpB string, names []string) (map[string]float64, error) {
	scores, err, _ := n.fills.Do(ctx, key+"\x00"+strings.Join(names, ","), func() (map[string]float64, error) {
		return n.fillLeader(ctx, key, fpA, fpB, names)
	})
	return scores, err
}

// fillLeader does the actual peer-fill fan-out: ask each alive owner
// in ring order by fingerprints alone; an owner that missed replication
// answers 404, and gets both AIGER payloads in a resend so it can
// intern them and still answer. If every owner is unreachable, compute
// locally (degraded but correct — scores are location-independent).
func (n *Node) fillLeader(ctx context.Context, key, fpA, fpB string, names []string) (map[string]float64, error) {
	if err := faultinject.HitCtx(ctx, PointFill); err == nil {
		req := client.FillRequest{A: fpA, B: fpB, Metrics: names}
		v := n.view()
		for _, id := range n.table.Owners(key) { // alive owners only
			if id == n.cfg.NodeID {
				continue
			}
			c := v.peers[id]
			if c == nil {
				continue // owner left between lookup and view load
			}
			scores, err := c.ClusterFill(ctx, req)
			if req.AIGERA == nil && isNotFound(err) {
				// The owner lacks a graph: resend with both payloads,
				// and keep them for the owners after it. The service
				// resolved the pair before routing, so both graphs are
				// local; an encoding failure is a bug, and the resend
				// then draws the same 404.
				req.AIGERA, _ = n.svc.AIGERFor(fpA)
				req.AIGERB, _ = n.svc.AIGERFor(fpB)
				telemetry.Add("cluster/fill_payload_resends", 1)
				trace.AddEvent(ctx, "cluster_fill_payload_resend", trace.A("peer", id))
				scores, err = c.ClusterFill(ctx, req)
			}
			if err == nil {
				n.peerOK(id)
				n.svc.FillPairCache(fpA, fpB, scores)
				telemetry.Add(v.pm[id].fills, 1)
				telemetry.Add("cluster/fills", 1)
				return scores, nil
			}
			if ctx.Err() != nil {
				return nil, err
			}
			var se *client.StaleEpochError
			if errors.As(err, &se) {
				// The peer is healthy, just on a different epoch:
				// converge (adopt or push) instead of counting a
				// failure, and fall back to the degraded local path —
				// the answer is bit-identical anywhere.
				n.resolveEpochConflict(ctx, se)
				trace.AddEvent(ctx, "cluster_fill_epoch_conflict", trace.A("peer", id))
				continue
			}
			n.peerFail(id)
			telemetry.Add(v.pm[id].fillFailures, 1)
			telemetry.Add("cluster/fill_failures", 1)
			trace.AddEvent(ctx, "cluster_fill_failover", trace.A("peer", id))
		}
	}
	telemetry.Add("cluster/degraded_local_computes", 1)
	trace.AddEvent(ctx, "cluster_degraded_local")
	return n.svc.ScorePairLocal(ctx, fpA, fpB, names)
}

// transfer is one key copy: a stored AIG's canonical AIGER payload,
// or a pair's result, plus the members it must reach. Replication,
// reconfigure handoff and drain all move keys as transfers; only their
// delivery policies differ.
type transfer struct {
	aiger   []byte             // an AIG's payload; nil for a pair result
	a, b    string             // a pair result's fingerprints
	scores  map[string]float64 // and its scores
	targets []string
}

// put delivers t to one peer. Both cluster put endpoints are
// content-addressed and accept any epoch, so every delivery policy can
// send any key to any member, a joining one included.
func (t transfer) put(ctx context.Context, c *client.Client) error {
	if t.aiger != nil {
		_, err := c.ClusterPutAIG(ctx, t.aiger)
		return err
	}
	return c.ClusterPutResult(ctx, t.a, t.b, t.scores)
}

// replicate pushes t to its targets asynchronously — the response
// never waits on replication, and a down peer is simply skipped (peer
// fill repairs it on demand). The push detaches from the request's
// cancellation but keeps its trace identity, so replication spans
// stitch to the originating request; Close still cancels it.
func (n *Node) replicate(ctx context.Context, t transfer) {
	if len(t.targets) == 0 {
		return
	}
	rctx := context.WithoutCancel(ctx)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		rctx, cancel := context.WithTimeout(rctx, pushTimeout)
		defer cancel()
		defer context.AfterFunc(n.baseCtx, cancel)()
		var err error
		if t.aiger != nil {
			err = faultinject.HitCtx(rctx, PointReplicateAIG)
		} else {
			err = faultinject.HitCtx(rctx, PointReplicateResult)
		}
		if err != nil {
			telemetry.Add("cluster/replication_failures", 1)
			return
		}
		v := n.view()
		for _, id := range t.targets {
			c := v.peers[id]
			if c == nil {
				continue
			}
			if err := t.put(rctx, c); err != nil {
				n.peerFail(id)
				telemetry.Add(v.pm[id].replicationFailures, 1)
				telemetry.Add("cluster/replication_failures", 1)
				continue
			}
			n.peerOK(id)
			telemetry.Add(v.pm[id].replications, 1)
			telemetry.Add("cluster/replications", 1)
		}
	}()
}

// onIntern is the InternObserver installed into the service: every
// externally submitted AIG is replicated to its fingerprint's ring
// owners so the nodes most likely to be asked about it already hold
// it. Cluster-internal interning (fill payloads, replication receives)
// does not re-trigger this — that asymmetry prevents replication
// storms.
func (n *Node) onIntern(ctx context.Context, v service.AIGView) {
	targets := n.aliveTargets(n.table.Ring().Owners(v.Fingerprint))
	if len(targets) == 0 {
		return
	}
	payload, err := n.svc.AIGERFor(v.Fingerprint)
	if err != nil {
		return
	}
	n.replicate(ctx, transfer{aiger: payload, targets: targets})
}

// ensureLocal makes a fingerprint resolvable on this node: if the
// local store misses, fetch the canonical AIGER from the fingerprint's
// alive ring owners (then any other alive peer — replication may not
// have converged yet) and intern it. Only when the whole cluster comes
// up empty is the fingerprint actually unknown.
func (n *Node) ensureLocal(ctx context.Context, fp string) error {
	if n.svc.HasAIG(fp) {
		return nil
	}
	v := n.view()
	owners := n.table.Owners(fp) // alive owners first
	seen := map[string]bool{n.cfg.NodeID: true}
	candidates := make([]string, 0, len(v.peerIDs))
	for _, id := range owners {
		if !seen[id] {
			seen[id] = true
			candidates = append(candidates, id)
		}
	}
	for _, id := range v.peerIDs {
		if !seen[id] && !n.table.IsDown(id) {
			candidates = append(candidates, id)
		}
	}
	for _, id := range candidates {
		c := v.peers[id]
		if c == nil {
			continue
		}
		payload, err := c.ClusterGetAIGER(ctx, fp)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !isNotFound(err) {
				// A contract 404 just means this peer doesn't have it
				// either; anything else counts against its health.
				n.peerFail(id)
			}
			continue
		}
		v, err := n.svc.InternAIGER(ctx, payload)
		if err != nil || v.Fingerprint != fp {
			telemetry.Add("cluster/aig_fetch_failures", 1)
			continue
		}
		n.peerOK(id)
		telemetry.Add("cluster/aig_fetches", 1)
		trace.AddEvent(ctx, "cluster_aig_fetch", trace.A("peer", id))
		return nil
	}
	return fmt.Errorf("%w %q (not stored anywhere in the cluster)", service.ErrUnknownFingerprint, fp)
}

// isNotFound reports whether err is a peer's contract 404: the peer
// lacks a graph the request names.
func isNotFound(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// aliveTargets filters an owner list down to alive peers (self
// excluded).
func (n *Node) aliveTargets(owners []string) []string {
	var out []string
	for _, id := range owners {
		if id == n.cfg.NodeID || n.table.IsDown(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}
