package cluster

import (
	"io"
	"net/http"
	"testing"
	"time"
)

// hangHandler parks every request until the client gives up: the shape
// of a peer that accepted the connection and then stopped making
// progress (GC death spiral, blocked disk, half-partitioned host). The
// body is drained first — with an unread body the HTTP server never
// watches for the client disconnect, so the request context would not
// fire even after the caller aborted.
var hangHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
})

// TestCloseUnblocksHungProbe: a health probe stuck inside a peer that
// stopped answering must not delay Close by the probe timeout. The
// probe derives from the node-lifetime context, so Close cancels the
// in-flight round trip and returns within RPC-cancellation time.
//
// Regression: probe used to mint its timeout context from
// context.Background(), leaving Close to wait out the full
// ProbeTimeout of any probe in flight.
func TestCloseUnblocksHungProbe(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
		c.ProbeTimeout = 30 * time.Second
		c.PeerAttemptTimeout = 30 * time.Second
	})

	// n2 goes dark: connections accepted, no responses.
	tc.swaps["n2"].h.Store(&hangHandler)
	// Let n1's prober tick into the hung peer.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	tc.nodes["n1"].Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v with a probe hung in a dead peer; want prompt return via base-context cancellation", elapsed)
	}
}

// TestCloseAbortsReplication: an in-flight replication fan-out into a
// hung peer must not delay Close by the 10s push timeout. The fan-out's
// context is bounded by the node lifetime (context.AfterFunc on the
// base context), so Close cancels the RPC and the wg drains promptly.
//
// Regression: Close used to wg.Wait on replication goroutines whose
// only bound was the full replication timeout.
func TestCloseAbortsReplication(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.ProbeInterval = time.Hour // no probes: keep every peer "alive"
		c.FailureThreshold = 1000   // and un-evictable by inline failures
		c.PeerAttemptTimeout = 30 * time.Second
	})

	// Every peer of n1 goes dark, then an intern triggers replication
	// into the hung cluster.
	tc.swaps["n2"].h.Store(&hangHandler)
	tc.swaps["n3"].h.Store(&hangHandler)
	tc.submit("n1", testAIG(t, 7))
	time.Sleep(50 * time.Millisecond) // fan-out goroutine is now in flight

	start := time.Now()
	tc.nodes["n1"].Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v with replication hung in dead peers; want prompt return via base-context cancellation", elapsed)
	}
	// The aborted fan-out is visible, proving it really was in flight.
	if got := tc.reg.Counter("cluster/replication_failures").Value(); got == 0 {
		t.Fatal("expected the aborted replication fan-out to record cluster/replication_failures")
	}
}
