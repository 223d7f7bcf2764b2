package client

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/service"
)

// This file is the wire surface of cluster peer-to-peer traffic. The
// types are shared with internal/cluster's handlers (the cluster
// imports this package for its per-peer clients), so both sides of
// every peer conversation marshal the same struct — there is no second
// copy of the wire contract to drift. The daemon's own API follows the
// same rule: the client marshals the request and response types
// internal/service declares.

// FillRequest asks a pair's ring owner for its scores. A fill names
// the pair by fingerprints only; an owner that has not yet received
// the structures (replication raced the request, or the owner
// restarted) answers 404, and the requester resends with both AIGER
// payloads, which the owner interns before it answers — peer fill
// doubles as lazy replication repair. encoding/json carries []byte as
// base64.
type FillRequest struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Metrics []string `json:"metrics,omitempty"`
	AIGERA  []byte   `json:"aiger_a,omitempty"`
	AIGERB  []byte   `json:"aiger_b,omitempty"`
}

// FillResponse carries the owner's scores for a FillRequest.
type FillResponse struct {
	Scores map[string]float64 `json:"scores"`
}

// AIGERPayload carries a stored AIG's canonical AIGER encoding (as
// base64, like every []byte field) — the GET /v1/cluster/aigs/{fp}
// answer.
type AIGERPayload struct {
	AIGER []byte `json:"aiger"`
}

// ResultPut replicates one computed pair result to a replica's cache.
type ResultPut struct {
	A      string             `json:"a"`
	B      string             `json:"b"`
	Scores map[string]float64 `json:"scores"`
}

// EpochHeader carries the sender's membership epoch on peer RPCs and
// gateway requests. A node answering a ring-routed request compares it
// against its own epoch and refuses a mismatch with a structured 409
// (EpochStatus) — a node can never serve a routing decision from an
// outdated ring, and the refused sender learns the fresher membership
// from the answer.
const EpochHeader = "X-Cluster-Epoch"

// EpochStatus is the body of an epoch-mismatch 409: the answering
// node's identity, epoch, and full membership view, so the refused
// sender can re-resolve without a second round trip.
type EpochStatus struct {
	Error   string            `json:"error,omitempty"`
	Node    string            `json:"node,omitempty"`
	Epoch   uint64            `json:"epoch"`
	Members map[string]string `json:"members,omitempty"`
}

// StaleEpochError is the typed form of an epoch-mismatch 409. It is
// not retryable against the same node with the same epoch; routing
// layers adopt the carried membership and re-route instead.
type StaleEpochError struct {
	Node    string
	Epoch   uint64
	Members map[string]string
	Message string
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("aigd: epoch mismatch at %s (its epoch %d): %s", e.Node, e.Epoch, e.Message)
}

// ReconfigureRequest asks a node to move to a new membership epoch.
// Joining lists members that must receive a full backfill of every key
// they own under the new ring (fresh joins and rejoins after data
// loss), not just the keys whose ownership moved.
type ReconfigureRequest struct {
	Epoch   uint64            `json:"epoch"`
	Peers   map[string]string `json:"peers"`
	Joining []string          `json:"joining,omitempty"`
}

// AnnounceRequest is the peer-to-peer membership notification: a node
// that installed a new epoch announces it (with the membership view,
// so a behind peer can catch up), and a draining node announces its
// departure so peers evict it from routing immediately instead of
// waiting out probe failures.
type AnnounceRequest struct {
	Node     string            `json:"node"`
	Epoch    uint64            `json:"epoch"`
	Members  map[string]string `json:"members,omitempty"`
	Draining bool              `json:"draining,omitempty"`
}

// HandoffProgress reports a node's current (or last) key handoff:
// how many keys the plan covers, how many have been streamed, and how
// many transfers failed.
type HandoffProgress struct {
	Active bool  `json:"active"`
	Total  int64 `json:"total"`
	Sent   int64 `json:"sent"`
	Failed int64 `json:"failed"`
}

// StatusView is the GET /v1/cluster/status answer: the node's
// membership epoch and lifecycle state plus its per-peer health view
// and handoff progress — the aigw status surface.
type StatusView struct {
	Node     string              `json:"node"`
	State    string              `json:"state"`
	Epoch    uint64              `json:"epoch"`
	Members  map[string]string   `json:"members"`
	Down     []string            `json:"down"`
	Failures map[string]int      `json:"failures"`
	Breakers map[string][]string `json:"breakers,omitempty"`
	Handoff  HandoffProgress     `json:"handoff"`
}

// ClusterFill asks a peer (the pair's owner) to resolve a fill
// request, retrying and breaker-gating like any other endpoint.
func (c *Client) ClusterFill(ctx context.Context, req FillRequest) (map[string]float64, error) {
	var resp FillResponse
	if err := c.post(ctx, "cluster_fill", "/v1/cluster/fill", req, "", &resp); err != nil {
		return nil, err
	}
	return resp.Scores, nil
}

// ClusterGetAIGER fetches the canonical AIGER encoding of a stored
// fingerprint from a peer — the read side of on-demand AIG fetch: a
// node asked about a fingerprint it never received pulls the structure
// from a peer before scoring.
func (c *Client) ClusterGetAIGER(ctx context.Context, fp string) ([]byte, error) {
	var p AIGERPayload
	if err := c.do(ctx, "cluster_aigs", http.MethodGet, "/v1/cluster/aigs/"+fp, "", nil, "", &p); err != nil {
		return nil, err
	}
	return p.AIGER, nil
}

// ClusterPutAIG replicates an AIGER payload to a peer. Interning is
// content-addressed, so replaying a replication is idempotent.
func (c *Client) ClusterPutAIG(ctx context.Context, aiger []byte) (service.AIGView, error) {
	var v service.AIGView
	err := c.do(ctx, "cluster_aigs", http.MethodPost, "/v1/cluster/aigs", "application/octet-stream", aiger, "", &v)
	return v, err
}

// ClusterPutResult replicates a computed pair result to a peer's
// cache. Safe to replay: scores are a pure function of the pair, so a
// duplicate put installs the identical value.
func (c *Client) ClusterPutResult(ctx context.Context, a, b string, scores map[string]float64) error {
	return c.post(ctx, "cluster_result", "/v1/cluster/result", ResultPut{A: a, B: b, Scores: scores}, "", nil)
}

// ClusterStatus fetches a node's membership/handoff status.
func (c *Client) ClusterStatus(ctx context.Context) (StatusView, error) {
	var v StatusView
	err := c.do(ctx, "cluster_status", http.MethodGet, "/v1/cluster/status", "", nil, "", &v)
	return v, err
}

// ClusterReconfigure proposes a membership change to a node. The node
// validates and replies immediately (202); handoff and epoch install
// run asynchronously — poll ClusterStatus for completion.
func (c *Client) ClusterReconfigure(ctx context.Context, req ReconfigureRequest) (StatusView, error) {
	var v StatusView
	err := c.post(ctx, "cluster_reconfigure", "/v1/cluster/reconfigure", req, "", &v)
	return v, err
}

// ClusterDrain asks a node to drain: pre-copy its owned keys to their
// successors and leave routing. Replies immediately; poll
// ClusterStatus for handoff progress.
func (c *Client) ClusterDrain(ctx context.Context) (StatusView, error) {
	var v StatusView
	err := c.post(ctx, "cluster_drain", "/v1/cluster/drain", struct{}{}, "", &v)
	return v, err
}

// ClusterAnnounce delivers a membership notification to a peer.
func (c *Client) ClusterAnnounce(ctx context.Context, req AnnounceRequest) error {
	return c.post(ctx, "cluster_announce", "/v1/cluster/announce", req, "", nil)
}
