package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// maxPeerBody bounds one peer request body: a fill request carries up
// to two inline AIGER payloads, each bounded like an external submit.
const maxPeerBody = 33 << 20

// Handler mounts the cluster's peer-to-peer endpoints in front of the
// service API; everything that is not /v1/cluster/* falls through to
// the wrapped daemon handler behind the external gate (lifecycle 503s
// and stale-epoch 409s).
//
// Epoch enforcement is deliberately split by endpoint class:
//
//   - fill is ring-routed computation — ANY epoch mismatch is refused
//     (a request routed by a different ring may have picked the wrong
//     owner; the structured 409 teaches the sender the fresh view);
//   - aigs/result puts and gets are content-addressed and
//     placement-independent (a payload or score is bit-identical
//     whoever holds it), so they carry no epoch check — which is also
//     what lets an old-epoch member stream handoff data to a
//     new-epoch joiner;
//   - the external API refuses only *stale* (lower) gateway epochs: a
//     gateway that is ahead of this node is harmless (answers are
//     placement-independent), and this node converges via announce.
func (n *Node) Handler() http.Handler {
	inner := n.svc.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/fill", n.peerGuard(n.handleFill))
	mux.HandleFunc("POST /v1/cluster/aigs", n.peerGuard(n.handlePutAIG))
	mux.HandleFunc("GET /v1/cluster/aigs/{fp}", n.peerGuard(n.handleGetAIGER))
	mux.HandleFunc("POST /v1/cluster/result", n.peerGuard(n.handlePutResult))
	mux.HandleFunc("GET /v1/cluster/status", n.peerGuard(n.handleStatus))
	mux.HandleFunc("POST /v1/cluster/reconfigure", n.peerGuard(n.handleReconfigure))
	mux.HandleFunc("POST /v1/cluster/drain", n.peerGuard(n.handleDrain))
	mux.HandleFunc("POST /v1/cluster/announce", n.peerGuard(n.handleAnnounce))
	mux.Handle("/", n.externalGate(inner))
	return mux
}

// externalGate wraps the external API (healthz included): a joining
// node is receiving-only and a draining node has left routing — both
// answer 503 with a Retry-After scaled to the remaining handoff
// backlog. Gating healthz is what makes lifecycle eviction stick:
// peers' probes keep a joining or draining node out of their routing
// tables without any extra protocol. A request stamped with a stale
// membership epoch is refused with the structured 409 so the gateway
// re-resolves instead of routing by a ring that no longer exists.
func (n *Node) externalGate(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if st := n.state.Load(); st != stateActive {
			w.Header().Set("Retry-After", strconv.Itoa(n.drainRetrySeconds()))
			peerReplies.Error(w, http.StatusServiceUnavailable, "node is %s", stateName(st))
			return
		}
		if hdr := r.Header.Get(client.EpochHeader); hdr != "" {
			if got, err := strconv.ParseUint(hdr, 10, 64); err == nil {
				local := n.table.Epoch()
				if got < local {
					n.replyEpochMismatch(w, got)
					return
				}
				if got > local {
					// The sender is ahead: serve anyway (answers are
					// placement-independent) but count it — a stream
					// of these means this node is partitioned from
					// the announce traffic.
					telemetry.Add("cluster/ahead_epoch_requests", 1)
				}
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// replyEpochMismatch answers the structured 409: the local epoch and
// full membership, so the refused sender re-resolves without a second
// round trip.
func (n *Node) replyEpochMismatch(w http.ResponseWriter, got uint64) {
	telemetry.Add("cluster/epoch_rejects", 1)
	local := n.table.Epoch()
	peerReplies.JSON(w, http.StatusConflict, client.EpochStatus{
		Error:   fmt.Sprintf("membership epoch mismatch: request at %d, node at %d", got, local),
		Node:    n.cfg.NodeID,
		Epoch:   local,
		Members: n.view().urls,
	})
}

// peerGuard is the cluster-endpoint analog of the service's request
// guard: it opens the "cluster/peer_request" span under the requesting
// node's traceparent (or a fresh trace) and echoes the trace identity,
// so a request that hops gateway → node → owner stitches into one
// trace ID end to end.
func (n *Node) peerGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		telemetry.Add("cluster/peer_requests", 1)
		ctx, sp := trace.StartServer(w, r, "cluster/peer_request")
		sp.Attr("path", r.URL.Path).Attr("node", n.cfg.NodeID)
		defer sp.End()
		h(w, r.WithContext(ctx))
	}
}

// peerReplies is the reply path of the peer routes and of the external
// gate's refusals.
var peerReplies = service.NewReplies("cluster/http_errors", "cluster/write_errors")

// faultReply is a ResponseWriter whose body goes through the
// fill_reply fault point, so chaos suites can serve torn fill replies.
type faultReply struct {
	http.ResponseWriter
	body io.Writer
}

func (f faultReply) Write(p []byte) (int, error) { return f.body.Write(p) }

// internInline installs an inline fill payload if the fingerprint is
// not already stored, verifying the payload actually hashes to the
// fingerprint the requester claims — a torn or corrupted payload must
// not be interned under the wrong key.
func (n *Node) internInline(ctx context.Context, fp string, payload []byte) error {
	if len(payload) == 0 || n.svc.HasAIG(fp) {
		return nil
	}
	v, err := n.svc.InternAIGER(ctx, payload)
	if err != nil {
		return err
	}
	if v.Fingerprint != fp {
		return fmt.Errorf("payload fingerprint %s does not match claimed %s", v.Fingerprint, fp)
	}
	return nil
}

// handleFill answers a peer's fill request: intern any inline
// payloads, score through the full local path (cache, singleflight,
// bounded pool), reply with the scores. The response body is routed
// through the fill_reply fault point so chaos suites can serve torn
// responses.
func (n *Node) handleFill(w http.ResponseWriter, r *http.Request) {
	// Fill is ring-routed: the sender picked this node as an owner
	// under *its* ring. Any epoch disagreement means the routing
	// decision may be wrong — refuse with the structured 409 and let
	// the sender converge (adopt if behind, push if ahead).
	if hdr := r.Header.Get(client.EpochHeader); hdr != "" {
		if got, err := strconv.ParseUint(hdr, 10, 64); err == nil {
			if got != n.table.Epoch() {
				n.replyEpochMismatch(w, got)
				return
			}
			// An equal-epoch ring-routed RPC proves an old member
			// installed the ring that includes us: a joining node
			// activates on it.
			n.observeEpoch(got, nil)
		}
	}
	var req client.FillRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPeerBody))
	if err := dec.Decode(&req); err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "decoding fill request: %v", err)
		return
	}
	if err := n.internInline(r.Context(), req.A, req.AIGERA); err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "interning %s: %v", req.A, err)
		return
	}
	if err := n.internInline(r.Context(), req.B, req.AIGERB); err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "interning %s: %v", req.B, err)
		return
	}
	if !n.svc.HasAIG(req.A) || !n.svc.HasAIG(req.B) {
		peerReplies.Error(w, http.StatusNotFound, "pair (%s, %s) not fully stored here and no payload supplied", req.A, req.B)
		return
	}
	scores, err := n.svc.ScorePairLocal(r.Context(), req.A, req.B, req.Metrics)
	if errors.Is(err, service.ErrBusy) {
		n.svc.Shed(w, r, peerReplies)
		return
	}
	if err != nil {
		peerReplies.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	peerReplies.JSON(faultReply{w, faultinject.WrapWriter(PointFillReply, w)}, http.StatusOK, client.FillResponse{Scores: scores})
}

// handlePutAIG is the receive side of AIG replication: intern the
// payload content-addressed (idempotent) without re-triggering the
// intern observer — replication must not cascade.
func (n *Node) handlePutAIG(w http.ResponseWriter, r *http.Request) {
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerBody))
	if err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "reading payload: %v", err)
		return
	}
	v, err := n.svc.InternAIGER(r.Context(), payload)
	if err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	peerReplies.JSON(w, http.StatusOK, v)
}

// handleGetAIGER serves the canonical AIGER encoding of a stored
// fingerprint to a peer doing on-demand AIG fetch.
func (n *Node) handleGetAIGER(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	payload, err := n.svc.AIGERFor(fp)
	if err != nil {
		peerReplies.Error(w, http.StatusNotFound, "%v", err)
		return
	}
	peerReplies.JSON(w, http.StatusOK, client.AIGERPayload{AIGER: payload})
}

// handlePutResult is the receive side of result replication: install
// the scores in the local cache. Sound because scores are a pure
// function of the pair — see service.FillPairCache.
func (n *Node) handlePutResult(w http.ResponseWriter, r *http.Request) {
	var req client.ResultPut
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPeerBody)).Decode(&req); err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "decoding result: %v", err)
		return
	}
	if req.A == "" || req.B == "" || len(req.Scores) == 0 {
		peerReplies.Error(w, http.StatusBadRequest, "result put needs a, b, and scores")
		return
	}
	n.svc.FillPairCache(req.A, req.B, req.Scores)
	telemetry.Add("cluster/results_received", 1)
	peerReplies.JSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleStatus reports membership epoch, lifecycle state, per-peer
// health/breaker state, and handoff progress — the aigw status
// surface and the poll target for 202-admitted membership operations.
func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	peerReplies.JSON(w, http.StatusOK, n.Status())
}

// handleReconfigure admits a membership-change proposal. The reply is
// 202: the handoff and epoch install run asynchronously (they span
// many peer round trips — holding the operator's HTTP request open for
// that would just trade one timeout for another); poll /v1/cluster/
// status until the epoch shows up.
func (n *Node) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	var req client.ReconfigureRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPeerBody)).Decode(&req); err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "decoding reconfigure request: %v", err)
		return
	}
	if err := n.Reconfigure(req); err != nil {
		peerReplies.Error(w, http.StatusConflict, "%v", err)
		return
	}
	peerReplies.JSON(w, http.StatusAccepted, n.Status())
}

// handleDrain starts this node's departure (also reachable via
// SIGUSR1). 202 like reconfigure: the pre-copy runs asynchronously.
func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := n.StartDrain(); err != nil {
		peerReplies.Error(w, http.StatusConflict, "%v", err)
		return
	}
	peerReplies.JSON(w, http.StatusAccepted, n.Status())
}

// handleAnnounce receives a peer's membership notification: a
// draining peer is evicted from routing immediately; a newer epoch
// with a membership view is adopted; an equal epoch activates a
// joining node.
func (n *Node) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	var req client.AnnounceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPeerBody)).Decode(&req); err != nil {
		peerReplies.Error(w, http.StatusBadRequest, "decoding announce: %v", err)
		return
	}
	telemetry.Add("cluster/announces_received", 1)
	if req.Draining && req.Node != "" && req.Node != n.cfg.NodeID {
		if n.table.SetDown(req.Node, true) {
			telemetry.Add("cluster/peer_evictions", 1)
			n.logPeerEvent("peer_down", req.Node, 0)
		}
	}
	n.observeEpoch(req.Epoch, req.Members)
	peerReplies.JSON(w, http.StatusOK, map[string]bool{"ok": true})
}
