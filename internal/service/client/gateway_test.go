package client

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// gwFixture is a 3-node fixture for gateway tests: three independent
// daemons (no server-side clustering — the gateway is being tested, not
// the cluster), each behind a request counter and a kill switch.
type gwFixture struct {
	g      *Gateway
	counts map[string]*atomic.Int64
	dead   map[string]*atomic.Bool
	reg    *telemetry.Registry
}

func newGatewayFixture(t *testing.T) *gwFixture {
	t.Helper()
	reg := telemetry.Enable()
	reg.Reset()
	fx := &gwFixture{
		counts: make(map[string]*atomic.Int64),
		dead:   make(map[string]*atomic.Bool),
		reg:    reg,
	}
	peers := make(map[string]string)
	for _, id := range []string{"n1", "n2", "n3"} {
		svc := service.New(service.Config{Workers: 2})
		cnt, dead := &atomic.Int64{}, &atomic.Bool{}
		inner := svc.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close() // torn connection, like a killed process
				}
				return
			}
			cnt.Add(1)
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		peers[id] = ts.URL
		fx.counts[id], fx.dead[id] = cnt, dead
	}
	g, err := NewGateway(GatewayConfig{
		Peers:  peers,
		Client: Config{MaxAttempts: 1, AttemptTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.g = g
	return fx
}

// seedAll interns the same AIGER on every node directly (the fixture
// has no server-side replication) and returns its fingerprint.
func (fx *gwFixture) seedAll(t *testing.T, aiger []byte) string {
	t.Helper()
	var fp string
	for _, id := range fx.g.Members() {
		c, ok := fx.g.Client(id)
		if !ok {
			t.Fatalf("no client for %s", id)
		}
		v, err := c.SubmitAIG(context.Background(), aiger)
		if err != nil {
			t.Fatalf("seed %s: %v", id, err)
		}
		fp = v.Fingerprint
	}
	return fp
}

// TestGatewayRoutesToOwner: a metrics call must land on the pair's
// first ring owner, and repeated calls must keep landing there — the
// routing is deterministic, so the owner's result cache is the one that
// warms up.
func TestGatewayRoutesToOwner(t *testing.T) {
	fx := newGatewayFixture(t)
	a := fx.seedAll(t, testAIG(t, 1))
	b := fx.seedAll(t, testAIG(t, 2))
	for id := range fx.counts {
		fx.counts[id].Store(0)
	}

	owners := fx.g.PairOwners(a, b)
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want replication 2", owners)
	}
	for i := 0; i < 3; i++ {
		if _, err := fx.g.Metrics(context.Background(), a, b, []string{"VEO"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fx.counts[owners[0]].Load(); got != 3 {
		t.Fatalf("owner %s served %d/3 metrics calls", owners[0], got)
	}
	for _, id := range fx.g.Members() {
		if id != owners[0] && fx.counts[id].Load() != 0 {
			t.Fatalf("non-owner %s served %d calls", id, fx.counts[id].Load())
		}
	}
}

// TestGatewayFailover: killing the pair's owner must not change the
// answer — the gateway fails over to the replica and the scores are
// bit-identical, because every node derives profiles from the same
// structural fingerprints.
func TestGatewayFailover(t *testing.T) {
	fx := newGatewayFixture(t)
	a := fx.seedAll(t, testAIG(t, 3))
	b := fx.seedAll(t, testAIG(t, 4))

	before, err := fx.g.Metrics(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	owners := fx.g.PairOwners(a, b)
	fx.dead[owners[0]].Store(true)

	after, err := fx.g.Metrics(context.Background(), a, b, nil)
	if err != nil {
		t.Fatalf("metrics with dead owner: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("metric sets diverged: %d vs %d", len(after), len(before))
	}
	for name, want := range before {
		got, ok := after[name]
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: replica answered %v (%#x), owner answered %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if n := fx.reg.Counter("client/gateway_failovers").Value(); n < 1 {
		t.Fatalf("gateway_failovers = %d, want >= 1", n)
	}

	// Re-admission: the node comes back and serves again.
	fx.dead[owners[0]].Store(false)
	fx.counts[owners[0]].Store(0)
	if _, err := fx.g.Metrics(context.Background(), a, b, nil); err != nil {
		t.Fatal(err)
	}
	if fx.counts[owners[0]].Load() == 0 {
		t.Fatalf("revived owner %s never saw traffic again", owners[0])
	}
}

// TestGatewaySubmitFailover: round-robin submission must skip a dead
// node and still intern on a live one.
func TestGatewaySubmitFailover(t *testing.T) {
	fx := newGatewayFixture(t)
	fx.dead["n2"].Store(true)
	for i := 0; i < 4; i++ {
		if _, err := fx.g.SubmitAIG(context.Background(), testAIG(t, int64(10+i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// TestGatewayNoFailoverOnContract: a definitive 404 is the cluster's
// answer, not a node failure — the gateway must return it immediately
// instead of asking every replica the same question.
func TestGatewayNoFailoverOnContract(t *testing.T) {
	fx := newGatewayFixture(t)
	for id := range fx.counts {
		fx.counts[id].Store(0)
	}
	_, err := fx.g.Metrics(context.Background(), "fp-missing-a", "fp-missing-b", []string{"VEO"})
	if err == nil {
		t.Fatal("expected 404 for unknown fingerprints")
	}
	var total int64
	for _, c := range fx.counts {
		total += c.Load()
	}
	if total != 1 {
		t.Fatalf("a contract 404 reached %d nodes, want exactly 1", total)
	}
}

// TestGatewayReconfigureOn409: a gateway started from a stale peer
// list must heal itself on first contact — the cluster refuses the
// stale epoch with a structured 409 carrying its membership, the
// gateway adopts it and retries, and the caller sees a clean answer.
func TestGatewayReconfigureOn409(t *testing.T) {
	reg := telemetry.Enable()
	reg.Reset()

	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	inner := svc.Handler()

	const newEpoch = 7
	var ts *httptest.Server
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := r.Header.Get(EpochHeader)
		if got != "7" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			// The refusal carries the fresher membership (the same
			// node under a different ID, so adoption is observable).
			body, _ := json.Marshal(EpochStatus{
				Error:   "epoch mismatch: got " + got,
				Node:    "n1",
				Epoch:   newEpoch,
				Members: map[string]string{"n1": ts.URL, "n9": ts.URL},
			})
			w.Write(body)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	g, err := NewGateway(GatewayConfig{
		Peers:  map[string]string{"n1": ts.URL},
		Client: Config{MaxAttempts: 1, AttemptTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", g.Epoch())
	}

	// The submit must succeed despite the gateway starting at epoch 1:
	// one 409, one adoption, one retry under the new epoch.
	if _, err := g.SubmitAIG(context.Background(), testAIG(t, 99)); err != nil {
		t.Fatalf("submit through stale gateway: %v", err)
	}
	if g.Epoch() != newEpoch {
		t.Fatalf("epoch after adoption = %d, want %d", g.Epoch(), newEpoch)
	}
	members := g.Members()
	if len(members) != 2 || members[0] != "n1" || members[1] != "n9" {
		t.Fatalf("members after adoption = %v, want [n1 n9]", members)
	}
	if n := reg.Counter("client/gateway_reconfigures").Value(); n != 1 {
		t.Fatalf("gateway_reconfigures = %d, want 1", n)
	}
	if n := reg.Counter("client/epoch_mismatches").Value(); n < 1 {
		t.Fatalf("epoch_mismatches = %d, want >= 1", n)
	}

	// Subsequent calls run clean at the adopted epoch — no more 409s.
	before := reg.Counter("client/epoch_mismatches").Value()
	if _, err := g.SubmitAIG(context.Background(), testAIG(t, 100)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("client/epoch_mismatches").Value(); n != before {
		t.Fatalf("epoch_mismatches grew to %d after adoption", n)
	}
}

// TestGatewayExplicitReconfigure: Reconfigure is epoch-monotonic and
// reuses clients for unchanged URLs (breaker state must survive a
// membership change).
func TestGatewayExplicitReconfigure(t *testing.T) {
	fx := newGatewayFixture(t)
	g := fx.g
	v := g.view.Load()
	urls := map[string]string{}
	for id, u := range v.urls {
		urls[id] = u
	}
	oldN1, _ := g.Client("n1")

	// Stale and duplicate epochs are no-ops.
	if err := g.Reconfigure(1, map[string]string{"nX": "http://invalid"}); err != nil {
		t.Fatal(err)
	}
	if got := g.Members(); len(got) != 3 {
		t.Fatalf("stale reconfigure changed membership: %v", got)
	}

	// A real move: drop n3, keep n1/n2.
	next := map[string]string{"n1": urls["n1"], "n2": urls["n2"]}
	if err := g.Reconfigure(2, next); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", g.Epoch())
	}
	if got := g.Members(); len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("members = %v, want [n1 n2]", got)
	}
	if newN1, _ := g.Client("n1"); newN1 != oldN1 {
		t.Fatal("client for unchanged URL was rebuilt — breaker state lost")
	}
	if _, ok := g.Client("n3"); ok {
		t.Fatal("removed member still resolvable")
	}
	if _, err := g.Metrics(context.Background(), "x", "y", nil); err == nil {
		t.Fatal("expected 404 routing through 2-node view")
	}
}

// TestGatewayNeighborsAndDiverse: the retrieval calls route like the
// rest of the gateway — neighbors to the structure's ring owner with
// failover, diverse to the pool head's owner — and the answers match
// what the owning node would return directly.
func TestGatewayNeighborsAndDiverse(t *testing.T) {
	fx := newGatewayFixture(t)
	fps := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		fps = append(fps, fx.seedAll(t, testAIG(t, int64(40+i))))
	}
	for id := range fx.counts {
		fx.counts[id].Store(0)
	}

	owners := fx.g.AIGOwners(fps[0])
	resp, err := fx.g.Neighbors(context.Background(), service.NeighborsRequest{FP: fps[0], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.K != 3 || len(resp.Neighbors) != 3 {
		t.Fatalf("neighbors response %+v, want 3 neighbors", resp)
	}
	if got := fx.counts[owners[0]].Load(); got != 1 {
		t.Fatalf("owner %s served %d/1 neighbors calls", owners[0], got)
	}

	// Kill the owner: the same query must fail over and still answer.
	fx.dead[owners[0]].Store(true)
	if _, err := fx.g.Neighbors(context.Background(), service.NeighborsRequest{FP: fps[0], K: 3}); err != nil {
		t.Fatalf("neighbors with dead owner: %v", err)
	}
	fx.dead[owners[0]].Store(false)

	dresp, err := fx.g.DiverseSubset(context.Background(), fps, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dresp.Chosen) != 3 || len(dresp.Matrix) != 3 {
		t.Fatalf("diverse response %+v, want 3 chosen with 3x3 matrix", dresp)
	}

	// An unknown fingerprint is a contract 404 — no failover storm.
	for id := range fx.counts {
		fx.counts[id].Store(0)
	}
	if _, err := fx.g.Neighbors(context.Background(), service.NeighborsRequest{FP: "fp-missing"}); err == nil {
		t.Fatal("expected 404 for unknown fingerprint")
	}
	var total int64
	for _, c := range fx.counts {
		total += c.Load()
	}
	if total != 1 {
		t.Fatalf("a contract 404 reached %d nodes, want exactly 1", total)
	}
}

// TestParsePeers pins the one membership-spec parser aigd and aigw
// share: blank entries are skipped, everything else must be ID=URL
// with a unique ID, and a spec naming no member is refused.
func TestParsePeers(t *testing.T) {
	cases := []struct {
		name, spec string
		want       map[string]string
		wantErr    string
	}{
		{"two members", "n1=http://h1:1,n2=http://h2:2", map[string]string{"n1": "http://h1:1", "n2": "http://h2:2"}, ""},
		{"blank entries skipped", " , n1=http://h1:1 ,, ", map[string]string{"n1": "http://h1:1"}, ""},
		{"duplicate ID", "n1=http://h1:1,n1=http://h1:2,n2=http://h2:3", nil, `duplicate member ID "n1"`},
		{"missing =", "n1=http://h1:1,n2", nil, `entry "n2" is not ID=URL`},
		{"empty ID", "=http://h1:1", nil, `entry "=http://h1:1" is not ID=URL`},
		{"empty URL", "n1=", nil, `entry "n1=" is not ID=URL`},
		{"empty spec", "", nil, "no members given"},
		{"only blanks", " , ,", nil, "no members given"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParsePeers(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParsePeers(%q) = %v, %v; want error containing %q", tc.spec, got, err, tc.wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParsePeers(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
			}
		})
	}
}
