package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFlightGroupFollowerCancel: a singleflight follower whose request
// is canceled must stop waiting immediately instead of inheriting the
// leader's schedule. The leader is not interrupted — its result still
// lands in the flight for any caller that outlasts it.
//
// Regression: FlightGroup.Do used to wait on the leader's done channel
// with a bare receive, so a canceled request (client gone, deadline
// passed) stayed parked for as long as the leader's computation took.
func TestFlightGroupFollowerCancel(t *testing.T) {
	g := NewFlightGroup[float64]("service/singleflight_shared", "service/singleflight_abandoned")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan float64, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func() (float64, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
		leaderOut <- v
	}()
	<-leaderIn // the flight for "k" is registered and computing

	ctx, cancel := context.WithCancel(context.Background())
	followerOut := make(chan error, 1)
	go func() {
		_, err, shared := g.Do(ctx, "k", func() (float64, error) {
			t.Error("follower ran the computation despite an in-flight leader")
			return 0, nil
		})
		if !shared {
			t.Error("follower did not join the leader's flight")
		}
		followerOut <- err
	}()

	cancel()
	select {
	case err := <-followerOut:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower stayed parked behind the leader")
	}

	close(release)
	if v := <-leaderOut; v != 42 {
		t.Fatalf("leader returned %v, want 42 (follower cancellation must not disturb the leader)", v)
	}
}
