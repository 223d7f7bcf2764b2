// Command aigw is the cluster gateway CLI: it routes requests to a
// clustered aigd deployment client-side along the same consistent-hash
// ring the cluster uses, so calls land directly on the node that owns
// (or has cached) the answer, with automatic failover to replicas.
//
// Usage:
//
//	aigw -peers ID=URL,ID=URL,... [-replication R] [-vnodes N]
//	     [-timeout DUR] <command> [args]
//
// Commands:
//
//	submit FILE         upload an AIGER file (round-robin with failover),
//	                    print its content-addressed view
//	metrics FPA FPB [M1,M2,...]
//	                    score a stored pair (routed to its ring owner),
//	                    print the scores as JSON
//	neighbors FP [-k K] [-metric M] [-exact] [-budget N]
//	                    k-NN query for a stored fingerprint (routed to
//	                    its ring owners), print the ranked neighbors
//	diverse [-k K] [-metric M] [FP ...]
//	                    greedy max-min diverse subset over the given
//	                    pool (or the receiving node's whole corpus)
//	route FPA FPB       print the pair's owner node IDs, one per line,
//	                    in preference order (no request is made)
//	health              probe every node once; print per-node status
//	                    (sorted by node ID — stable for diffing)
//	status              print every node's membership epoch, lifecycle
//	                    state, handoff progress, and per-peer health
//	drain NODE          ask NODE to drain (leave routing, pre-copy its
//	                    keys) and wait for its handoff to finish
//	join ID=URL         admit a new member: propose the grown
//	                    membership at the next epoch to every current
//	                    member and wait for the cluster to install it
//	reconfigure         propose the -peers list as the membership at
//	                    the next epoch (use after editing the peer set;
//	                    removed nodes should be drained first)
//
// The flags mirror the cluster's own -peers/-replication/-vnodes and
// must match them: ring agreement between gateway and cluster is what
// makes client-side routing land on the right node. The membership
// flags only seed the gateway — a cluster that has moved to a newer
// epoch teaches the gateway its current membership on first contact
// (structured 409 + automatic re-resolution).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	os.Exit(run())
}

func run() int {
	peersSpec := flag.String("peers", "", "cluster membership as ID=URL,ID=URL,... (required)")
	replication := flag.Int("replication", 0, "owners per ring key, must match the cluster (0 = 2)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member, must match the cluster (0 = 64)")
	timeout := flag.Duration("timeout", 30*time.Second, "overall budget per command")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "aigw: need a command: submit | metrics | neighbors | diverse | route | health | status | drain | join | reconfigure")
		return 2
	}

	peers, err := client.ParsePeers(*peersSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigw: bad -peers:", err)
		return 2
	}
	g, err := client.NewGateway(client.GatewayConfig{
		Peers:       peers,
		Replication: *replication,
		VNodes:      *vnodes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigw:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		if len(rest) != 1 {
			fmt.Fprintln(os.Stderr, "aigw: usage: submit FILE")
			return 2
		}
		payload, err := os.ReadFile(rest[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigw:", err)
			return 1
		}
		v, err := g.SubmitAIG(ctx, payload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigw:", err)
			return 1
		}
		return printJSON(v)
	case "metrics":
		if len(rest) < 2 || len(rest) > 3 {
			fmt.Fprintln(os.Stderr, "aigw: usage: metrics FPA FPB [M1,M2,...]")
			return 2
		}
		var names []string
		if len(rest) == 3 {
			names = strings.Split(rest[2], ",")
		}
		scores, err := g.Metrics(ctx, rest[0], rest[1], names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigw:", err)
			return 1
		}
		return printJSON(scores)
	case "neighbors":
		fs := flag.NewFlagSet("neighbors", flag.ContinueOnError)
		k := fs.Int("k", 0, "neighbors to return (0 = server default)")
		metric := fs.String("metric", "", "similarity metric (default WLKernel)")
		exact := fs.Bool("exact", false, "force the exact full-corpus scan")
		budget := fs.Int("budget", 0, "sketch candidate budget (0 = server default)")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "aigw: usage: neighbors [-k K] [-metric M] [-exact] [-budget N] FP")
			return 2
		}
		resp, err := g.Neighbors(ctx, service.NeighborsRequest{
			FP: fs.Arg(0), K: *k, Metric: *metric, Exact: *exact, Budget: *budget,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigw:", err)
			return 1
		}
		return printJSON(resp)
	case "diverse":
		fs := flag.NewFlagSet("diverse", flag.ContinueOnError)
		k := fs.Int("k", 4, "subset size")
		metric := fs.String("metric", "", "similarity metric (default WLKernel)")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		resp, err := g.DiverseSubset(ctx, fs.Args(), *k, *metric)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigw:", err)
			return 1
		}
		return printJSON(resp)
	case "route":
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "aigw: usage: route FPA FPB")
			return 2
		}
		for _, id := range g.PairOwners(rest[0], rest[1]) {
			fmt.Println(id)
		}
		return 0
	case "health":
		return printHealth(os.Stdout, g.Members(), g.Healthz(ctx))
	case "status":
		views, errs := g.Statuses(ctx)
		return printStatus(os.Stdout, g.Members(), views, errs)
	case "drain":
		if len(rest) != 1 {
			fmt.Fprintln(os.Stderr, "aigw: usage: drain NODE")
			return 2
		}
		return runDrain(ctx, g, rest[0])
	case "join":
		if len(rest) != 1 || !strings.Contains(rest[0], "=") {
			fmt.Fprintln(os.Stderr, "aigw: usage: join ID=URL")
			return 2
		}
		id, url, _ := strings.Cut(rest[0], "=")
		return runJoin(ctx, g, id, url)
	case "reconfigure":
		return runReconfigure(ctx, g, peers)
	default:
		fmt.Fprintf(os.Stderr, "aigw: unknown command %q\n", cmd)
		return 2
	}
}

// printHealth emits the per-node probe outcome sorted by node ID —
// byte-stable output for operators diffing successive runs (the
// determinism lint pins this emission path).
func printHealth(w io.Writer, members []string, status map[string]error) int {
	ids := append([]string(nil), members...)
	sort.Strings(ids)
	code := 0
	for _, id := range ids {
		if err := status[id]; err != nil {
			fmt.Fprintf(w, "%s down: %v\n", id, err)
			code = 1
		} else {
			fmt.Fprintf(w, "%s ok\n", id)
		}
	}
	return code
}

// printStatus emits every node's membership/handoff status sorted by
// node ID, with sorted member and breaker lists — same determinism
// contract as printHealth.
func printStatus(w io.Writer, members []string, views map[string]client.StatusView, errs map[string]error) int {
	ids := append([]string(nil), members...)
	sort.Strings(ids)
	code := 0
	for _, id := range ids {
		if err := errs[id]; err != nil {
			fmt.Fprintf(w, "%s unreachable: %v\n", id, err)
			code = 1
			continue
		}
		v := views[id]
		handoff := "idle"
		if v.Handoff.Active {
			handoff = "active"
		}
		fmt.Fprintf(w, "%s epoch=%d state=%s handoff=%s(%d/%d sent, %d failed)",
			id, v.Epoch, v.State, handoff, v.Handoff.Sent, v.Handoff.Total, v.Handoff.Failed)
		down := append([]string(nil), v.Down...)
		sort.Strings(down)
		if len(down) > 0 {
			fmt.Fprintf(w, " down=%s", strings.Join(down, ","))
		}
		if len(v.Breakers) > 0 {
			peers := make([]string, 0, len(v.Breakers))
			for p := range v.Breakers {
				peers = append(peers, p)
			}
			sort.Strings(peers)
			parts := make([]string, 0, len(peers))
			for _, p := range peers {
				eps := append([]string(nil), v.Breakers[p]...)
				sort.Strings(eps)
				parts = append(parts, p+":"+strings.Join(eps, "+"))
			}
			fmt.Fprintf(w, " breakers=%s", strings.Join(parts, ","))
		}
		fmt.Fprintln(w)
	}
	return code
}

// runDrain asks one node to drain and waits for its handoff to
// complete (Active flips false once the pre-copy is done).
func runDrain(ctx context.Context, g *client.Gateway, node string) int {
	c, ok := g.Client(node)
	if !ok {
		fmt.Fprintf(os.Stderr, "aigw: unknown node %q\n", node)
		return 2
	}
	if _, err := c.ClusterDrain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aigw:", err)
		return 1
	}
	fmt.Printf("%s draining\n", node)
	for {
		sv, err := c.ClusterStatus(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigw: polling drain:", err)
			return 1
		}
		if sv.State == "draining" && !sv.Handoff.Active {
			fmt.Printf("%s drained: %d/%d keys handed off, %d failed\n",
				node, sv.Handoff.Sent, sv.Handoff.Total, sv.Handoff.Failed)
			return 0
		}
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "aigw: drain wait:", ctx.Err())
			return 1
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// clusterEpochCeiling asks every member for its status and returns the
// highest installed epoch plus the union membership view.
func clusterEpochCeiling(ctx context.Context, g *client.Gateway) (uint64, map[string]string, error) {
	views, errs := g.Statuses(ctx)
	if len(views) == 0 {
		for id, err := range errs {
			return 0, nil, fmt.Errorf("no member reachable (%s: %w)", id, err)
		}
		return 0, nil, fmt.Errorf("no members")
	}
	var epoch uint64
	members := make(map[string]string)
	for _, v := range views {
		if v.Epoch > epoch {
			epoch = v.Epoch
			// The highest epoch's membership view wins — lower-epoch
			// members converge to it.
			members = make(map[string]string)
			for id, url := range v.Members {
				members[id] = url
			}
		}
	}
	return epoch, members, nil
}

// proposeToAll posts a reconfigure request to each listed member (IDs
// resolved through the gateway, so it must be seeded with the current
// membership). Every old member runs its own handoff plan; the primary
// -alive-sender rule keeps the streams disjoint.
func proposeToAll(ctx context.Context, g *client.Gateway, ids []string, req client.ReconfigureRequest) int {
	admitted := 0
	for _, id := range ids {
		c, ok := g.Client(id)
		if !ok {
			continue
		}
		if _, err := c.ClusterReconfigure(ctx, req); err != nil {
			fmt.Fprintf(os.Stderr, "aigw: %s refused: %v\n", id, err)
			continue
		}
		admitted++
	}
	if admitted == 0 {
		fmt.Fprintln(os.Stderr, "aigw: no member admitted the proposal")
		return 1
	}
	// Wait until every surviving proposer installed the epoch.
	for {
		done := true
		for _, id := range ids {
			c, ok := g.Client(id)
			if !ok {
				continue
			}
			sv, err := c.ClusterStatus(ctx)
			if err != nil || (sv.Epoch < req.Epoch && sv.State != "draining") {
				done = false
				break
			}
		}
		if done {
			fmt.Printf("epoch %d installed on %d members\n", req.Epoch, admitted)
			return 0
		}
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "aigw: waiting for epoch install:", ctx.Err())
			return 1
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// runJoin admits one new member: grow the highest-epoch membership
// view by the new node, propose it (with the node listed as Joining,
// so it receives a full backfill of every key it owns) to every
// current member, and wait for the install.
func runJoin(ctx context.Context, g *client.Gateway, id, url string) int {
	epoch, members, err := clusterEpochCeiling(ctx, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigw:", err)
		return 1
	}
	if _, exists := members[id]; exists {
		fmt.Fprintf(os.Stderr, "aigw: %s is already a member (rejoin still backfills it)\n", id)
	}
	next := make(map[string]string, len(members)+1)
	oldIDs := make([]string, 0, len(members))
	for m, u := range members {
		next[m] = u
		if m != id {
			oldIDs = append(oldIDs, m)
		}
	}
	next[id] = url
	sort.Strings(oldIDs)
	req := client.ReconfigureRequest{Epoch: epoch + 1, Peers: next, Joining: []string{id}}
	fmt.Printf("admitting %s at epoch %d (%d members)\n", id, req.Epoch, len(next))
	return proposeToAll(ctx, g, oldIDs, req)
}

// runReconfigure proposes the gateway's -peers list as the next
// membership. Members present in the proposal but absent from the
// cluster's current view are treated as joining (full backfill).
func runReconfigure(ctx context.Context, g *client.Gateway, peers map[string]string) int {
	epoch, cur, err := clusterEpochCeiling(ctx, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigw:", err)
		return 1
	}
	var joining, proposers []string
	for id := range peers {
		if _, ok := cur[id]; !ok {
			joining = append(joining, id)
		} else {
			proposers = append(proposers, id)
		}
	}
	sort.Strings(joining)
	sort.Strings(proposers)
	if len(proposers) == 0 {
		fmt.Fprintln(os.Stderr, "aigw: the proposed membership shares no member with the cluster")
		return 1
	}
	req := client.ReconfigureRequest{Epoch: epoch + 1, Peers: peers, Joining: joining}
	fmt.Printf("proposing epoch %d with %d members (%d joining)\n", req.Epoch, len(peers), len(joining))
	return proposeToAll(ctx, g, proposers, req)
}

func printJSON(v any) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "aigw:", err)
		return 1
	}
	return 0
}
