// Command repro regenerates the paper's experimental artifacts: Table I
// (traditional metrics vs ROD), Table II (AIG-specific metrics vs ROD
// across flows), Figure 2 (optimization trajectories), and Figure 3 (the
// Resub Score scatter). One invocation performs one experiment run; the
// tables are different views of the same run.
//
// Usage:
//
//	repro [-seed N] [-max-inputs N] [-max-specs N] [-flows a,b] [-v] [-quick]
//	      [-table 1|2] [-figure 2|3] [-all] [-csv pairs.csv]
//	      [-metrics-addr :8090] [-events run.jsonl]
//	      [-checkpoint run.ckpt] [-resume] [-flow-timeout 30s]
//
// Observability: -metrics-addr serves /metrics (Prometheus), /debug/vars
// (JSON), and /debug/pprof live during the run; -events writes one JSONL
// event per processed spec; either flag also prints a per-stage
// busy-time summary to stderr at the end of the run. Telemetry is
// entirely off (no goroutines, no overhead beyond a few atomic loads)
// unless one of these flags is given.
//
// Robustness: SIGINT/SIGTERM cancel the run gracefully — the spec in
// flight is abandoned and tables/CSV are emitted from the completed
// prefix. -checkpoint appends each completed spec to a JSONL file;
// -resume replays it and continues from the first missing spec,
// reproducing the uninterrupted run byte for byte. -flow-timeout bounds
// each optimization flow's wall clock. Variants that panic or fail
// functional-equivalence verification are quarantined and reported in
// the run summary instead of crashing the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

func main() {
	var (
		seed        = flag.Int64("seed", 2024, "experiment seed")
		maxInputs   = flag.Int("max-inputs", 10, "skip specs with more inputs (paper's scalability cut)")
		maxSpecs    = flag.Int("max-specs", 0, "truncate the suite (0 = all)")
		flows       = flag.String("flows", "", "comma-separated flow subset (default all)")
		verbose     = flag.Bool("v", false, "print per-spec progress to stderr")
		quick       = flag.Bool("quick", false, "reduced run (max-inputs 8, max-specs 20) for smoke tests")
		table       = flag.Int("table", 0, "print only Table 1 or 2")
		byCat       = flag.String("by-category", "", "metric whose per-category correlations to print (with -flows one flow)")
		figure      = flag.Int("figure", 0, "print only Figure 2 or 3")
		all         = flag.Bool("all", true, "print every artifact")
		csvPath     = flag.String("csv", "", "write the raw pair samples to this CSV file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address during the run")
		eventsPath  = flag.String("events", "", "append JSONL pipeline events to this file")
		ckptPath    = flag.String("checkpoint", "", "append each completed spec to this JSONL checkpoint file")
		resume      = flag.Bool("resume", false, "replay the -checkpoint file and continue from the first missing spec")
		flowTimeout = flag.Duration("flow-timeout", 0, "wall-clock budget per flow invocation (0 = unbounded)")
		selfcheck   = flag.Bool("selfcheck", false, "run the AIG structural verifier after every synthesis recipe and optimization flow")
		traceTop    = flag.Int("trace-top", 0, "trace the run and print flame graphs of the N slowest variants to stderr")
	)
	flag.Parse()

	// Chaos runs set AIG_FAULTS to replay a deterministic failure
	// schedule; a malformed spec is a hard error, not a silent no-op.
	if err := faultinject.EnableFromEnv(); err != nil {
		fatal(err)
	}

	if *figure == 2 {
		out, err := harness.Figure2("fulladder", *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" || *eventsPath != "" {
		reg = telemetry.Enable()
	}
	// Each harness variant starts its own trace (no run-level root), so
	// -trace-top ranks variants — the unit a slow run decomposes into.
	var tstore *trace.Store
	if *traceTop > 0 {
		tstore = trace.NewStore(trace.StoreConfig{SlowKeep: *traceTop})
		trace.SetCollector(tstore)
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "repro: serving telemetry on http://%s/metrics\n", srv.Addr())
	}

	cfg := harness.Config{
		Seed:        *seed,
		MaxInputs:   *maxInputs,
		MaxSpecs:    *maxSpecs,
		FlowTimeout: *flowTimeout,
		SelfCheck:   *selfcheck,
	}
	if *quick {
		// -quick supplies defaults only: flags the user set explicitly
		// win over it.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["max-inputs"] {
			cfg.MaxInputs = 8
		}
		if !explicit["max-specs"] {
			cfg.MaxSpecs = 20
		}
	}
	if *flows != "" {
		cfg.Flows = strings.Split(*flows, ",")
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	var eventsFile *os.File
	if *eventsPath != "" {
		f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		eventsFile = f
		cfg.Events = telemetry.NewEventLogger(f)
	}
	if *ckptPath != "" {
		ckpt, records, err := harness.OpenCheckpoint(*ckptPath, cfg, *resume)
		if err != nil {
			fatal(err)
		}
		cfg.Checkpoint = ckpt
		cfg.Resume = records
		if *resume {
			fmt.Fprintf(os.Stderr, "repro: resuming %d checkpointed specs from %s\n", len(records), *ckptPath)
		}
	}

	// SIGINT/SIGTERM cancel the run after the spec in flight; a second
	// signal aborts immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "repro: %v received, stopping after the current spec (send again to abort)\n", s)
		cancel()
		if _, ok := <-sigc; ok {
			fmt.Fprintln(os.Stderr, "repro: aborting")
			os.Exit(130)
		}
	}()

	start := time.Now()
	res, err := harness.RunContext(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	signal.Stop(sigc)
	close(sigc)
	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "repro: interrupted after %d specs; emitting partial results\n", len(res.Specs))
	}
	if reg != nil {
		fmt.Fprintf(os.Stderr, "\n--- run summary (%d specs, %d pairs) ---\n%s",
			len(res.Specs), len(res.Pairs), harness.StageSummary(reg, time.Since(start)))
	}
	if fs := res.FailureSummary(); fs != "" {
		fmt.Fprint(os.Stderr, fs)
	}
	if tstore != nil {
		printSlowTraces(tstore, *traceTop)
	}

	switch {
	case *byCat != "":
		for _, fl := range res.FlowNames {
			fmt.Print(res.CategoryTable(*byCat, fl))
		}
	case *table == 1:
		fmt.Print(res.TableI())
	case *table == 2:
		fmt.Print(res.TableII())
	case *figure == 3:
		fmt.Print(res.Figure3Plot())
		fmt.Print(res.Figure3())
	case *all:
		fmt.Println(res.CategorySummary())
		fmt.Println(res.TableI())
		fmt.Println(res.TableII())
		fmt.Println(summaryOnlyFigure3(res))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d pair samples to %s\n", len(res.Pairs), *csvPath)
	}
	if err := cfg.Checkpoint.Close(); err != nil {
		fatal(fmt.Errorf("closing checkpoint %s: %w", *ckptPath, err))
	}
	if eventsFile != nil {
		if err := cfg.Events.Err(); err != nil {
			fatal(fmt.Errorf("writing events to %s: %w", *eventsPath, err))
		}
		if err := eventsFile.Close(); err != nil {
			fatal(fmt.Errorf("closing events file %s: %w", *eventsPath, err))
		}
	}
}

// printSlowTraces renders the n slowest retained traces as flame text.
func printSlowTraces(st *trace.Store, n int) {
	sums := st.List(trace.Filter{})
	sort.Slice(sums, func(i, j int) bool { return sums[i].DurationMS > sums[j].DurationMS })
	if len(sums) > n {
		sums = sums[:n]
	}
	fmt.Fprintf(os.Stderr, "\n--- %d slowest traces ---\n", len(sums))
	for _, s := range sums {
		if f, ok := st.Flame(s.TraceID); ok {
			fmt.Fprintln(os.Stderr, f)
		}
	}
}

// summaryOnlyFigure3 prints Figure 3's statistics without the full point
// cloud (use -figure 3 for the raw series).
func summaryOnlyFigure3(res *harness.Result) string {
	full := res.Figure3()
	lines := strings.SplitN(full, "\n", 4)
	if len(lines) < 3 {
		return full
	}
	return strings.Join(lines[:3], "\n") + "\n(run with -figure 3 for the full scatter series)\n"
}

// writeCSV writes the pair samples through the atomic-replace helper:
// the new file is fsynced before it is renamed over the old one, so a
// crash or full disk leaves either the previous complete
// results_pairs.csv or the new one — never a truncated hybrid.
func writeCSV(path string, res *harness.Result) error {
	return harness.WriteFileAtomic(path, func(w io.Writer) error {
		return harness.WriteCSV(w, res)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
