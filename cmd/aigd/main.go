// Command aigd runs the diversity-as-a-service daemon: a long-running
// HTTP/JSON server over the similarity framework with content-addressed
// AIG storage, cached pairwise scoring, async optimization jobs, and
// sketch-indexed retrieval — every stored structure is MinHash/SimHash
// signed and band-indexed on intern, so /v1/neighbors (k-NN by any
// metric) and /v1/diverse-subset (greedy max-min selection) answer in
// sub-quadratic time, and /v1/metrics/batch prunes oversized batches
// through band collisions (see README "Similarity at scale").
//
// Usage:
//
//	aigd [-addr :8347] [-workers N] [-queue-depth N] [-cache-entries N]
//	     [-store-entries N] [-spill-dir DIR] [-spill-threshold BYTES]
//	     [-drain-timeout DUR] [-events FILE] [-trace] [-trace-entries N]
//	     [-trace-slow N] [-trace-sample RATE] [-slo DUR]
//	     [-node-id ID -peers ID=URL,... | -peers-file FILE]
//	     [-cluster-epoch N] [-join] [-replication R]
//	     [-vnodes N] [-probe-interval DUR] [-peer-timeout DUR]
//
// The API is mounted alongside the telemetry endpoints (/metrics,
// /debug/vars, /debug/pprof). -trace turns on end-to-end request
// tracing: every request runs under a W3C traceparent-propagated trace,
// retained traces are served on /v1/debug/traces, and per-endpoint RED
// metrics (with -slo breach counters) appear on /metrics. -events
// appends the structured JSONL access/event log to FILE. On SIGTERM or
// SIGINT the daemon stops admitting work, drains in-flight jobs for up
// to -drain-timeout, then exits.
//
// -node-id plus -peers (or -peers-file) turn the daemon into one
// member of a cluster (see internal/cluster): fingerprints are routed
// on a consistent-hash ring with -replication owners per key,
// result-cache misses are filled from the owning peer, and per-peer
// health probes evict dead peers from routing until they recover. The
// seed peer list must agree across members and include this node's own
// ID; afterwards membership is dynamic:
//
//   - SIGHUP re-reads -peers-file and proposes the new membership at
//     the next epoch — moved keys are streamed to their new owners
//     before the routing table switches, so config reload never needs
//     a restart (send the signal to every member).
//   - SIGUSR1 (or POST /v1/cluster/drain) drains the node: it leaves
//     routing immediately, pre-copies its owned keys to their
//     successors, and keeps answering peers until the copy is done.
//   - -join boots the node as a new member entering an existing
//     cluster at -cluster-epoch: receiving-only until the old members
//     finish backfilling it (drive the flow with `aigw join`).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// parsePeersFile reads a membership file: one ID=URL per line (commas
// work too), blank lines and #-comments ignored. The same file drives
// boot and SIGHUP reload, so membership changes are an edit plus a
// signal, not a restart.
func parsePeersFile(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	return client.ParsePeers(strings.Join(entries, ","))
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "worker queue depth (0 = 4x workers)")
	cacheEntries := flag.Int("cache-entries", 0, "pairwise result cache capacity in AIG pairs (0 = 65536)")
	storeEntries := flag.Int("store-entries", 0, "content-addressed AIG store capacity (0 = 4096)")
	spillDir := flag.String("spill-dir", "", "directory for oversized job results (empty = keep in memory)")
	spillThreshold := flag.Int("spill-threshold", 0, "spill job results larger than this many bytes (0 = 256 KiB)")
	drainTimeout := flag.Duration("drain-timeout", service.DrainTimeoutDefault, "how long to wait for in-flight jobs on shutdown")
	faults := flag.String("faults", os.Getenv(faultinject.EnvVar), "fault-injection spec (chaos testing; see internal/faultinject)")
	events := flag.String("events", "", "append structured JSONL access/event log to this file")
	traceOn := flag.Bool("trace", false, "enable end-to-end request tracing (/v1/debug/traces)")
	traceEntries := flag.Int("trace-entries", 0, "retained trace capacity (0 = 2048)")
	traceSlow := flag.Int("trace-slow", 0, "always keep the N slowest traces (0 = 64)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of unremarkable traces to keep (0 = 0.1)")
	slo := flag.Duration("slo", 0, "per-endpoint latency SLO for RED breach counters (0 = 500ms)")
	nodeID := flag.String("node-id", "", "cluster member ID (requires -peers or -peers-file)")
	peersSpec := flag.String("peers", "", "cluster membership as ID=URL,ID=URL,... (must include -node-id)")
	peersFile := flag.String("peers-file", "", "cluster membership file (one ID=URL per line; SIGHUP re-reads it and reconfigures without restart)")
	clusterEpoch := flag.Uint64("cluster-epoch", 0, "membership epoch the peer list corresponds to (0 = 1; set when rejoining an advanced cluster)")
	join := flag.Bool("join", false, "boot as a new member entering an existing cluster: receiving-only until backfill completes")
	replication := flag.Int("replication", 0, "owners per ring key (0 = 2)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member (0 = 64)")
	probeInterval := flag.Duration("probe-interval", 0, "peer health probe cadence (0 = 500ms)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-attempt timeout on peer calls (0 = 2s)")
	flag.Parse()

	if *faults != "" {
		if err := faultinject.ArmFromSpec(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "aigd: bad -faults spec:", err)
			return 2
		}
		faultinject.Enable()
		fmt.Fprintf(os.Stderr, "aigd: fault injection armed: %s\n", *faults)
	}

	reg := telemetry.Enable()

	var tstore *trace.Store
	if *traceOn {
		tstore = trace.NewStore(trace.StoreConfig{
			Capacity:   *traceEntries,
			SlowKeep:   *traceSlow,
			SampleRate: *traceSample,
		})
		trace.SetCollector(tstore)
		fmt.Fprintln(os.Stderr, "aigd: request tracing enabled")
	}

	var evlog *telemetry.EventLogger
	var evfile *os.File
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigd: opening -events file:", err)
			return 1
		}
		evfile = f
		evlog = telemetry.NewEventLogger(f)
	}

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		StoreEntries: *storeEntries,
		SpillDir:     *spillDir,
		SpillBytes:   *spillThreshold,
		Trace:        tstore,
		Events:       evlog,
		SLOTarget:    *slo,
	})

	var node *cluster.Node
	apiHandler := svc.Handler()
	if *nodeID != "" || *peersSpec != "" || *peersFile != "" {
		var peers map[string]string
		var err error
		switch {
		case *peersSpec != "" && *peersFile != "":
			fmt.Fprintln(os.Stderr, "aigd: -peers and -peers-file are mutually exclusive")
			return 2
		case *peersFile != "":
			if peers, err = parsePeersFile(*peersFile); err != nil {
				fmt.Fprintln(os.Stderr, "aigd: bad -peers-file:", err)
				return 2
			}
		default:
			if peers, err = client.ParsePeers(*peersSpec); err != nil {
				fmt.Fprintln(os.Stderr, "aigd: bad -peers:", err)
				return 2
			}
		}
		node, err = cluster.New(svc, cluster.Config{
			NodeID:             *nodeID,
			Peers:              peers,
			Epoch:              *clusterEpoch,
			Join:               *join,
			Replication:        *replication,
			VNodes:             *vnodes,
			ProbeInterval:      *probeInterval,
			PeerAttemptTimeout: *peerTimeout,
			Events:             evlog,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigd:", err)
			return 2
		}
		apiHandler = node.Handler()
		mode := "member"
		if *join {
			mode = "joining member"
		}
		fmt.Fprintf(os.Stderr, "aigd: cluster mode: %s %s of %d (epoch %d)\n",
			mode, *nodeID, len(peers), node.Epoch())
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/", reg.Handler())
	mux.Handle("/", apiHandler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigd:", err)
		return 1
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "aigd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if node != nil {
		opsig := make(chan os.Signal, 2)
		signal.Notify(opsig, syscall.SIGHUP, syscall.SIGUSR1)
		defer signal.Stop(opsig)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case sig := <-opsig:
					switch sig {
					case syscall.SIGUSR1:
						// Operator-initiated drain: leave routing, pre-copy
						// owned keys, keep answering peers until empty.
						if err := node.StartDrain(); err != nil {
							fmt.Fprintln(os.Stderr, "aigd: drain:", err)
							continue
						}
						fmt.Fprintln(os.Stderr, "aigd: draining (SIGUSR1): left routing, handing off owned keys")
					case syscall.SIGHUP:
						// Config reload without restart: re-read the
						// membership file and propose it at the next epoch.
						if *peersFile == "" {
							fmt.Fprintln(os.Stderr, "aigd: SIGHUP ignored: no -peers-file to reload")
							continue
						}
						peers, err := parsePeersFile(*peersFile)
						if err != nil {
							fmt.Fprintln(os.Stderr, "aigd: reload:", err)
							continue
						}
						cur := node.Status().Members
						var joining []string
						for id := range peers {
							if _, ok := cur[id]; !ok {
								joining = append(joining, id)
							}
						}
						req := client.ReconfigureRequest{
							Epoch:   node.Epoch() + 1,
							Peers:   peers,
							Joining: joining,
						}
						if err := node.Reconfigure(req); err != nil {
							fmt.Fprintln(os.Stderr, "aigd: reconfigure:", err)
							continue
						}
						fmt.Fprintf(os.Stderr, "aigd: reconfiguring to epoch %d with %d members (%d joining)\n",
							req.Epoch, len(peers), len(joining))
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "aigd:", err)
		return 1
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "aigd: draining (budget %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "aigd: drain incomplete:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	if node != nil {
		node.Close()
	}
	svc.Close()
	if evfile != nil {
		// A torn or failed event-log write is a degraded run, not a
		// silent one: surface it in the exit status.
		code := 0
		if err := evlog.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "aigd: event log degraded:", err)
			code = 1
		}
		if err := evfile.Close(); err != nil && code == 0 {
			fmt.Fprintln(os.Stderr, "aigd: closing event log:", err)
			code = 1
		}
		if code != 0 {
			return code
		}
	}
	fmt.Fprintln(os.Stderr, "aigd: bye")
	return 0
}
