package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aiger"
	"repro/internal/cluster/ring"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/tt"
)

// testAIG synthesizes a deterministic small AIG (distinct per seed)
// and returns its AIGER ASCII encoding.
func testAIG(t *testing.T, seed int64) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := synth.SynthSOP([]tt.TT{tt.Random(6, r)})
	var b bytes.Buffer
	if err := aiger.WriteASCII(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// partitionTransport injects network partitions: a blocked host fails
// every round trip immediately, like a dropped route.
type partitionTransport struct {
	mu      sync.Mutex
	blocked map[string]bool
	base    http.RoundTripper
}

func (p *partitionTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	p.mu.Lock()
	blocked := p.blocked[r.URL.Host]
	p.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("injected partition to %s", r.URL.Host)
	}
	return p.base.RoundTrip(r)
}

func (p *partitionTransport) set(host string, blocked bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[host] = blocked
}

// swapHandler lets the fixture create HTTP servers (to learn their
// URLs) before the nodes that will serve on them exist.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// deadHandler simulates a killed process: the connection is torn down
// without a response.
var deadHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			_ = conn.Close()
			return
		}
	}
	panic("dead")
})

type testCluster struct {
	t       *testing.T
	ids     []string
	urls    map[string]string
	hosts   map[string]string
	svcs    map[string]*service.Server
	nodes   map[string]*Node
	swaps   map[string]*swapHandler
	trans   *partitionTransport
	reg     *telemetry.Registry
	httpCli *http.Client
}

// newTestCluster boots an n-node in-process cluster with fast health
// timing. All nodes share one telemetry registry (the global one), so
// cluster-total counters are direct assertions.
func newTestCluster(t *testing.T, n int, tweak func(*Config)) *testCluster {
	t.Helper()
	reg := telemetry.Enable()
	reg.Reset()
	tc := &testCluster{
		t:     t,
		urls:  make(map[string]string),
		hosts: make(map[string]string),
		svcs:  make(map[string]*service.Server),
		nodes: make(map[string]*Node),
		swaps: make(map[string]*swapHandler),
		trans: &partitionTransport{blocked: make(map[string]bool), base: http.DefaultTransport},
		reg:   reg,
	}
	tc.httpCli = &http.Client{Transport: tc.trans}
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		tc.ids = append(tc.ids, id)
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		tc.swaps[id] = sw
		tc.urls[id] = ts.URL
		tc.hosts[id] = ts.Listener.Addr().String()
		peers[id] = ts.URL
	}
	for _, id := range tc.ids {
		svc := service.New(service.Config{Workers: 2, QueueDepth: 16})
		cfg := Config{
			NodeID:             id,
			Peers:              peers,
			ProbeInterval:      25 * time.Millisecond,
			ProbeTimeout:       250 * time.Millisecond,
			FailureThreshold:   2,
			PeerAttemptTimeout: time.Second,
			PeerMaxAttempts:    1,
			HTTPClient:         tc.httpCli,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := New(svc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := node.Handler()
		tc.swaps[id].h.Store(&h)
		tc.svcs[id] = svc
		tc.nodes[id] = node
		t.Cleanup(func() {
			node.Close()
			svc.Close()
		})
	}
	return tc
}

// submit uploads an AIGER payload through one node's external API.
func (tc *testCluster) submit(id string, aiger []byte) string {
	tc.t.Helper()
	resp, err := http.Post(tc.urls[id]+"/v1/aigs", "application/octet-stream", bytes.NewReader(aiger))
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.AIGView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("submit via %s: status %d, err %v", id, resp.StatusCode, err)
	}
	return v.Fingerprint
}

// metrics scores a pair through one node's external API, returning the
// scores and the response headers.
func (tc *testCluster) metrics(id, a, b string, names []string, hdr http.Header) (map[string]float64, http.Header, error) {
	tc.t.Helper()
	body, _ := json.Marshal(map[string]any{"a": a, "b": b, "metrics": names})
	req, err := http.NewRequest(http.MethodPost, tc.urls[id]+"/v1/metrics", bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Scores map[string]float64 `json:"scores"`
		Error  string             `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.Header, fmt.Errorf("decoding: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.Header, fmt.Errorf("HTTP %d: %s", resp.StatusCode, out.Error)
	}
	return out.Scores, resp.Header, nil
}

// pairRoles returns the static owners of the pair and one non-owner.
func (tc *testCluster) pairRoles(a, b string) (owners []string, nonOwner string) {
	tc.t.Helper()
	anyNode := tc.nodes[tc.ids[0]]
	owners = anyNode.table.Ring().Owners(ring.PairKey(a, b))
	inOwners := make(map[string]bool)
	for _, id := range owners {
		inOwners[id] = true
	}
	for _, id := range tc.ids {
		if !inOwners[id] {
			return owners, id
		}
	}
	tc.t.Fatal("no non-owner in cluster")
	return nil, ""
}

// singleNodeScores computes the reference answer on a fresh standalone
// daemon — the bit-identity baseline every cluster answer must match.
func singleNodeScores(t *testing.T, aigA, aigB []byte, names []string) map[string]float64 {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	va, err := svc.InternAIGER(context.Background(), aigA)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := svc.InternAIGER(context.Background(), aigB)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := svc.ScorePairLocal(context.Background(), va.Fingerprint, vb.Fingerprint, names)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

// assertBitIdentical compares two score maps at the float64 bit level.
func assertBitIdentical(t *testing.T, got, want map[string]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: metric sets diverged: got %d, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s = %v (%#x), want %v (%#x)",
				label, name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestClusterBitIdenticalAnswers: every node of a 3-node cluster must
// answer a pair request with scores bit-identical to a standalone
// daemon — through the owner path, the peer-fill path, and the cache
// path alike. This is the invariant that makes routing, replication,
// and failover sound.
func TestClusterBitIdenticalAnswers(t *testing.T) {
	aigA, aigB := testAIG(t, 1), testAIG(t, 2)
	want := singleNodeScores(t, aigA, aigB, nil)

	tc := newTestCluster(t, 3, nil)
	a := tc.submit(tc.ids[0], aigA)
	b := tc.submit(tc.ids[0], aigB)
	for _, id := range tc.ids {
		scores, _, err := tc.metrics(id, a, b, nil, nil)
		if err != nil {
			t.Fatalf("metrics via %s: %v", id, err)
		}
		assertBitIdentical(t, scores, want, "via "+id)
	}
}

// TestClusterNoDoubleCompute: concurrent fan-in of one pair through a
// non-owner must cost the cluster exactly one metric computation (the
// node-level fill singleflight collapses the fan-in to one peer round
// trip; the owner's own singleflight collapses concurrent fills to one
// compute) — the cluster total is directly observable because every
// in-process node shares the global telemetry registry.
func TestClusterNoDoubleCompute(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	a := tc.submit(tc.ids[0], testAIG(t, 3))
	b := tc.submit(tc.ids[0], testAIG(t, 4))
	_, nonOwner := tc.pairRoles(a, b)

	tc.reg.Reset()
	const fanIn = 16
	var wg sync.WaitGroup
	errs := make(chan error, fanIn)
	for i := 0; i < fanIn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := tc.metrics(nonOwner, a, b, []string{"VEO"}, nil); err != nil {
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
		t.Fatalf("cluster computed the metric %d times under fan-in, want exactly 1", n)
	}
	if n := tc.reg.Counter("cluster/fills").Value(); n != 1 {
		t.Fatalf("fan-in cost %d peer fills, want exactly 1 (singleflight)", n)
	}
}

// TestClusterUntracedPeerExportsNoTraceID: with telemetry on but no
// trace collector, peer endpoints record registry-only spans and must
// not echo an (all-zero) trace identity.
func TestClusterUntracedPeerExportsNoTraceID(t *testing.T) {
	trace.SetCollector(nil)
	tc := newTestCluster(t, 1, nil)
	resp, err := http.Get(tc.urls[tc.ids[0]] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %d", resp.StatusCode)
	}
	for _, h := range []string{trace.TraceIDHeader, "traceparent"} {
		if v := resp.Header.Get(h); v != "" {
			t.Errorf("untraced peer sent %s: %q", h, v)
		}
	}
	if tc.reg.SpanStats("cluster/peer_request").Count == 0 {
		t.Error("cluster/peer_request histogram recorded nothing")
	}
}

// TestClusterTraceStitching: a request entering through a non-owner
// and filled from the owner must form ONE trace: the caller's trace ID
// is echoed back, and the span tree contains both the entry node's
// request span and the owner's peer_request span.
func TestClusterTraceStitching(t *testing.T) {
	store := trace.NewStore(trace.StoreConfig{})
	trace.SetCollector(store)
	defer trace.SetCollector(nil)

	tc := newTestCluster(t, 3, nil)
	a := tc.submit(tc.ids[0], testAIG(t, 5))
	b := tc.submit(tc.ids[0], testAIG(t, 6))
	_, nonOwner := tc.pairRoles(a, b)

	const tid = "11223344556677889900aabbccddeeff"
	hdr := http.Header{}
	hdr.Set("traceparent", "00-"+tid+"-1122334455667788-01")
	_, respHdr, err := tc.metrics(nonOwner, a, b, []string{"VEO"}, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got := respHdr.Get(trace.TraceIDHeader); got != tid {
		t.Fatalf("entry node echoed trace ID %q, want %q", got, tid)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		v, ok := store.Get(tid)
		if ok {
			var haveEntry, havePeer bool
			for _, sp := range v.Spans {
				switch sp.Name {
				case "service/request":
					haveEntry = true
				case "cluster/peer_request":
					havePeer = true
				}
			}
			if haveEntry && havePeer {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never stitched entry+peer spans: entry=%v peer=%v (%d spans)",
					tid, haveEntry, havePeer, len(v.Spans))
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the collector", tid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterReplicationConverges: an AIG submitted through any node
// is replicated to its fingerprint's ring owners without any request
// asking for it.
func TestClusterReplicationConverges(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	fp := tc.submit(tc.ids[0], testAIG(t, 7))
	owners := tc.nodes[tc.ids[0]].table.Ring().Owners(fp)
	deadline := time.Now().Add(3 * time.Second)
	for {
		done := true
		for _, id := range owners {
			if !tc.svcs[id].HasAIG(fp) {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("owners %v never converged on %s", owners, fp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
