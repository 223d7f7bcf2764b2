package client

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
	"repro/internal/service"
	"repro/internal/telemetry"
)

// GatewayConfig sizes a Gateway: the cluster membership it starts from
// plus a per-peer client template.
type GatewayConfig struct {
	// Peers maps node ID → base URL for every cluster member. The IDs
	// must match the -node-id each aigd was started with — they are
	// the consistent-hash ring's member names, so gateway-side routing
	// agrees with server-side ownership.
	Peers map[string]string
	// Replication and VNodes must match the cluster's flags (defaults
	// ring.DefaultReplication and ring.DefaultVNodes).
	Replication int
	VNodes      int
	// Epoch is the membership epoch Peers corresponds to (default 1).
	// It rides every request as EpochHeader; a cluster that has moved
	// past it refuses with a structured 409 carrying its current
	// membership, which the gateway adopts automatically and retries —
	// a gateway started from a stale peer list heals itself on first
	// contact.
	Epoch uint64
	// Client is the per-peer client template; BaseURL is overridden
	// per peer. Leave AttemptTimeout set (default 2s) so one stalled
	// node cannot eat a request's whole budget before failover.
	Client Config
}

// ParsePeers parses a membership spec, "n1=http://h1:8347,n2=...", into
// member ID → base URL — the one parser behind aigd's -peers and
// -peers-file and aigw's -peers. Blank entries are skipped; an entry
// that is not ID=URL, a repeated ID, or a spec naming no member at all
// is an error.
func ParsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("entry %q is not ID=URL", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate member ID %q", id)
		}
		peers[id] = url
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("no members given (want ID=URL,ID=URL,...)")
	}
	return peers, nil
}

// DefaultGatewayAttemptTimeout bounds one attempt against one node on
// the gateway path when the template does not say otherwise.
const DefaultGatewayAttemptTimeout = 2 * time.Second

// gwView is one membership epoch's immutable routing state. Requests
// load it once and route against it; Reconfigure swaps the whole view
// atomically, so in-flight calls never see a half-updated membership.
type gwView struct {
	epoch   uint64
	ring    *ring.Ring
	ids     []string // sorted member IDs
	urls    map[string]string
	clients map[string]*Client
}

// Gateway is the client-side routing mode for a clustered aigd: it
// holds one resilient Client per node and routes each call along the
// same consistent-hash ring the cluster itself uses, so a request for
// a pair usually lands directly on the node that owns (or has cached)
// the answer — no server-side peer hop needed. A failed owner fails
// over to the next replica, then to any remaining node (every node can
// serve every request via its own peer-fill path; routing is a latency
// optimization, never a correctness requirement).
//
// Membership is dynamic: Reconfigure installs a new peer set under a
// higher epoch, and an epoch-mismatch 409 from the cluster triggers
// the same adoption automatically mid-call.
type Gateway struct {
	cfg  GatewayConfig // template: Client config, Replication, VNodes
	view atomic.Pointer[gwView]
	mu   sync.Mutex    // serializes Reconfigure
	rr   atomic.Uint64 // submit round-robin cursor
}

// NewGateway builds a Gateway over the initial membership.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("client: GatewayConfig.Peers is required")
	}
	if cfg.Client.AttemptTimeout <= 0 {
		cfg.Client.AttemptTimeout = DefaultGatewayAttemptTimeout
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	g := &Gateway{cfg: cfg}
	v, err := g.buildView(cfg.Epoch, cfg.Peers, nil)
	if err != nil {
		return nil, err
	}
	g.view.Store(v)
	return g, nil
}

// buildView assembles the routing state for one epoch, reusing clients
// from prev for members whose URL is unchanged (their breaker and
// backoff state carries over — a reconfiguration must not amnesty a
// struggling node).
func (g *Gateway) buildView(epoch uint64, peers map[string]string, prev *gwView) (*gwView, error) {
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	r, err := ring.New(ids, g.cfg.VNodes, g.cfg.Replication)
	if err != nil {
		return nil, err
	}
	v := &gwView{
		epoch:   epoch,
		ring:    r,
		ids:     r.Members(),
		urls:    make(map[string]string, len(peers)),
		clients: make(map[string]*Client, len(peers)),
	}
	for _, id := range v.ids {
		v.urls[id] = peers[id]
		if prev != nil && prev.urls[id] == peers[id] {
			v.clients[id] = prev.clients[id]
			continue
		}
		ccfg := g.cfg.Client
		ccfg.BaseURL = peers[id]
		// The epoch header is read at send time from the gateway, not
		// baked in: a client surviving a reconfiguration stamps the
		// new epoch on its next request.
		ccfg.Headers = func(h http.Header) {
			h.Set(EpochHeader, strconv.FormatUint(g.Epoch(), 10))
		}
		c, err := New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("client: peer %s: %w", id, err)
		}
		v.clients[id] = c
	}
	return v, nil
}

// Reconfigure installs a new membership under a strictly greater
// epoch; a stale or duplicate proposal is a no-op. It is what aigw
// reconfigure/join call explicitly and what a 409 triggers implicitly.
func (g *Gateway) Reconfigure(epoch uint64, peers map[string]string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.view.Load()
	if epoch <= cur.epoch {
		return nil
	}
	v, err := g.buildView(epoch, peers, cur)
	if err != nil {
		return err
	}
	g.view.Store(v)
	telemetry.Add("client/gateway_reconfigures", 1)
	return nil
}

// Epoch returns the membership epoch the gateway currently routes by.
func (g *Gateway) Epoch() uint64 { return g.view.Load().epoch }

// Members returns the sorted node IDs of the current membership.
func (g *Gateway) Members() []string { return g.view.Load().ids }

// Client returns the per-node client, for callers that need to pin a
// specific node (job polling must go back to the node that accepted
// the job — jobs live in one node's memory, they are not replicated).
func (g *Gateway) Client(id string) (*Client, bool) {
	c, ok := g.view.Load().clients[id]
	return c, ok
}

// PairOwners returns the nodes owning a pair's result, in preference
// order — the routing decision Metrics makes, exposed for operators
// (aigw route) and tests.
func (g *Gateway) PairOwners(fpA, fpB string) []string {
	return g.view.Load().ring.Owners(ring.PairKey(fpA, fpB))
}

// AIGOwners returns the nodes owning a stored structure, in preference
// order — the routing decision Neighbors makes. Structures ring-hash on
// the raw fingerprint, matching the server-side replication key.
func (g *Gateway) AIGOwners(fp string) []string {
	return g.view.Load().ring.Owners(fp)
}

// ordered builds a failover order: the given owners first, every
// remaining node after them.
func (v *gwView) ordered(owners []string) []string {
	out := make([]string, 0, len(v.ids))
	out = append(out, owners...)
	inOwners := make(map[string]bool, len(owners))
	for _, id := range owners {
		inOwners[id] = true
	}
	for _, id := range v.ids {
		if !inOwners[id] {
			out = append(out, id)
		}
	}
	return out
}

// roundRobin builds a failover order starting at the round-robin
// cursor — the submit/no-affinity candidate order.
func (g *Gateway) roundRobin(v *gwView) []string {
	start := int(g.rr.Add(1)-1) % len(v.ids)
	candidates := make([]string, 0, len(v.ids))
	for i := 0; i < len(v.ids); i++ {
		candidates = append(candidates, v.ids[(start+i)%len(v.ids)])
	}
	return candidates
}

// failover reports whether an error from one node justifies trying the
// next: everything except a definitive contract refusal (4xx other
// than 429) does. A 404/400 means the cluster understood the request
// and said no — asking another replica would only repeat the answer.
// (Epoch-mismatch 409s never reach here; tryEach adopts and reroutes.)
func failover(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return true // transport failure, breaker open, ctx-independent exhaustion
}

// tryEach runs call against each candidate in order until one
// succeeds, failing over on retryable outcomes and counting each hop.
// candidatesFn is evaluated against a single membership view per
// round; an epoch-mismatch answer makes the gateway adopt the node's
// fresher membership and start a new round against the new view.
func (g *Gateway) tryEach(ctx context.Context, candidatesFn func(v *gwView) []string, call func(c *Client) error) error {
	var lastErr error
	// Two membership rounds: the second runs only after a 409 taught
	// the gateway a newer membership, which cannot happen twice for
	// one epoch (adoption is monotonic).
	for round := 0; round < 2; round++ {
		v := g.view.Load()
		candidates := candidatesFn(v)
		for i, id := range candidates {
			if err := ctx.Err(); err != nil {
				if lastErr != nil {
					return fmt.Errorf("gateway: %w (last failure: %v)", err, lastErr)
				}
				return err
			}
			c, ok := v.clients[id]
			if !ok {
				continue
			}
			err := call(c)
			if err == nil {
				return nil
			}
			lastErr = err
			var se *StaleEpochError
			if errors.As(err, &se) && round == 0 {
				// The node is on a newer membership: adopt it and
				// re-route the whole call against the fresh ring.
				if rerr := g.Reconfigure(se.Epoch, se.Members); rerr == nil {
					telemetry.Add("client/gateway_epoch_adoptions", 1)
					break
				}
				return err
			}
			if !failover(err) {
				return err
			}
			if i+1 < len(candidates) {
				telemetry.Add("client/gateway_failovers", 1)
			}
		}
		if !isStaleEpoch(lastErr) {
			break
		}
	}
	return fmt.Errorf("gateway: all nodes failed: %w", lastErr)
}

// first runs call through tryEach and returns the answer of the first
// node that succeeds.
func first[T any](ctx context.Context, g *Gateway, candidatesFn func(v *gwView) []string, call func(c *Client) (T, error)) (T, error) {
	var out T
	err := g.tryEach(ctx, candidatesFn, func(c *Client) error {
		v, err := call(c)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// SubmitAIG uploads an AIGER payload to the cluster. The receiving
// node (round-robin over members, with failover) interns it and
// replicates it to the structure's ring owners server-side.
func (g *Gateway) SubmitAIG(ctx context.Context, aiger []byte) (service.AIGView, error) {
	return first(ctx, g, g.roundRobin, func(c *Client) (service.AIGView, error) {
		return c.SubmitAIG(ctx, aiger)
	})
}

// Metrics scores a stored pair, routed by fingerprint to the pair's
// ring owner; a dead or saturated owner fails over to its replicas and
// then to the rest of the cluster.
func (g *Gateway) Metrics(ctx context.Context, a, b string, metrics []string) (map[string]float64, error) {
	return first(ctx, g, func(v *gwView) []string {
		return v.ordered(v.ring.Owners(ring.PairKey(a, b)))
	}, func(c *Client) (map[string]float64, error) {
		return c.Metrics(ctx, a, b, metrics)
	})
}

// Neighbors runs a k-NN query for the stored fingerprint req.FP,
// routed to the structure's ring owners first — they hold the
// structure (and the densest local corpus around it) so the answer is
// most complete there. Each node answers from its own store; in a
// cluster this is a per-node view, not a global one.
func (g *Gateway) Neighbors(ctx context.Context, req service.NeighborsRequest) (service.NeighborsResponse, error) {
	return first(ctx, g, func(v *gwView) []string {
		return v.ordered(v.ring.Owners(req.FP))
	}, func(c *Client) (service.NeighborsResponse, error) {
		return c.Neighbors(ctx, req)
	})
}

// DiverseSubset runs greedy max-min diversity selection. With an
// explicit pool the call routes to the first pool member's owners
// (most likely to hold the whole pool); a whole-corpus call
// round-robins like SubmitAIG since every node's corpus is equally
// valid a population.
func (g *Gateway) DiverseSubset(ctx context.Context, pool []string, k int, metric string) (service.DiverseResponse, error) {
	candidatesFn := g.roundRobin
	if len(pool) > 0 {
		candidatesFn = func(v *gwView) []string {
			return v.ordered(v.ring.Owners(pool[0]))
		}
	}
	return first(ctx, g, candidatesFn, func(c *Client) (service.DiverseResponse, error) {
		return c.DiverseSubset(ctx, pool, k, metric)
	})
}

// Healthz probes every node once and returns the per-node outcome
// (nil = healthy).
func (g *Gateway) Healthz(ctx context.Context) map[string]error {
	v := g.view.Load()
	out := make(map[string]error, len(v.ids))
	for _, id := range v.ids {
		out[id] = v.clients[id].Healthz(ctx)
	}
	return out
}

// Statuses fetches every node's membership/handoff status; the error
// map carries per-node fetch failures (nil = the StatusView is valid).
func (g *Gateway) Statuses(ctx context.Context) (map[string]StatusView, map[string]error) {
	v := g.view.Load()
	views := make(map[string]StatusView, len(v.ids))
	errs := make(map[string]error, len(v.ids))
	for _, id := range v.ids {
		sv, err := v.clients[id].ClusterStatus(ctx)
		if err != nil {
			errs[id] = err
			continue
		}
		views[id] = sv
	}
	return views, errs
}
