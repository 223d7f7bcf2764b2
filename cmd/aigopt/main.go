// Command aigopt applies optimization passes or high-effort flows to an
// AIGER file and writes the optimized result.
//
// Usage:
//
//	aigopt -script dc2 in.aag out.aag
//	aigopt -script "b;rw;rf;rs;rwz" in.aig out.aig
//
// Script atoms: a pass of opt.Passes — b (balance), rw/rwz (rewrite /
// zero-cost), rf/rfz (refactor), rs/rsz (resub), lut4/lut6 (LUT round
// trip) — or a flow name (orchestrate, dc2, deepsyn, compress).
//
// -verify checks the result against the input with aig.CheckEquivalence,
// as aigsim -equiv does: a differing output exits 1 without writing the
// output file. Above 16 inputs random simulation cannot prove
// equivalence, so when no output differs aigopt still writes the output
// but prints aigsim's INCONCLUSIVE verdict to stderr and exits 3.
//
// SIGINT/SIGTERM stop the script gracefully: the flow in progress
// returns its best equivalent AIG so far, remaining atoms are skipped,
// and the output file is still written. -flow-timeout bounds each flow
// atom's wall clock the same way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

func main() {
	script := flag.String("script", "dc2", "optimization script (see doc)")
	seed := flag.Int64("seed", 1, "seed for randomized flows")
	verify := flag.Bool("verify", false, "check equivalence exhaustively up to 16 inputs; above, exit 3 unless random simulation refutes it")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address during the run")
	eventsPath := flag.String("events", "", "append JSONL optimization events to this file")
	flowTimeout := flag.Duration("flow-timeout", 0, "wall-clock budget per flow atom (0 = unbounded)")
	selfcheck := flag.Bool("selfcheck", false, "run the structural verifier after every script atom and on the final AIG")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: aigopt [-script S] [-verify] [-selfcheck] [-metrics-addr A] [-events F] [-flow-timeout D] in.aag out.aag")
		os.Exit(2)
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" || *eventsPath != "" {
		reg = telemetry.Enable()
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "aigopt: serving telemetry on http://%s/metrics\n", srv.Addr())
	}
	var events *telemetry.EventLogger
	var eventsFile *os.File
	if *eventsPath != "" {
		f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		eventsFile = f
		events = telemetry.NewEventLogger(f)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "aigopt: %v received, finishing with the best AIG so far (send again to abort)\n", s)
		cancel()
		if _, ok := <-sigc; ok {
			fmt.Fprintln(os.Stderr, "aigopt: aborting")
			os.Exit(130)
		}
	}()

	in, out := flag.Arg(0), flag.Arg(1)
	g, err := aiger.ReadFile(in)
	if err != nil {
		fatal(err)
	}
	before := g.Stat()
	events.Log("opt_start", map[string]any{"in": in, "script": *script, "gates": g.NumAnds()})
	start := time.Now()
	og, err := runScript(ctx, g, *script, *seed, *flowTimeout, *selfcheck)
	if err != nil {
		fatal(err)
	}
	signal.Stop(sigc)
	close(sigc)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "aigopt: interrupted; writing the best AIG reached so far")
	}
	inconclusive := ""
	if *verify {
		verdict, outcome, err := aig.CheckEquivalence(g, og)
		switch {
		case err != nil:
			fatal(err)
		case outcome == aig.EquivRefuted:
			fatal(fmt.Errorf("VERIFICATION FAILED: %s", verdict))
		case outcome == aig.EquivInconclusive:
			inconclusive = verdict
		}
	}
	final := og.Cleanup()
	if *selfcheck {
		// The emitted AIG must satisfy the strict invariants (including
		// no dangling nodes — Cleanup just guaranteed that).
		if err := final.CheckStrict(); err != nil {
			fatal(fmt.Errorf("selfcheck on final AIG: %w", err))
		}
	}
	if err := aiger.WriteFile(out, final); err != nil {
		fatal(err)
	}
	events.Log("opt_done", map[string]any{
		"out": out, "gates": og.NumAnds(), "seconds": time.Since(start).Seconds(),
		"interrupted": ctx.Err() != nil,
	})
	fmt.Printf("%s: %v\n%s: %v\n", in, before, out, og.Stat())
	if reg != nil {
		fmt.Fprintf(os.Stderr, "\n--- pass summary ---\n%s", reg.SummaryTable())
	}
	if eventsFile != nil {
		if err := events.Err(); err != nil {
			fatal(fmt.Errorf("writing events to %s: %w", *eventsPath, err))
		}
		if err := eventsFile.Close(); err != nil {
			fatal(fmt.Errorf("closing events file %s: %w", *eventsPath, err))
		}
	}
	if inconclusive != "" {
		fmt.Fprintln(os.Stderr, inconclusive)
		os.Exit(aig.EquivInconclusive)
	}
}

// runScript applies the script atoms left to right. Cancellation stops
// between atoms (and inside flow convergence loops); each flow atom
// additionally runs under its own wall-clock budget when flowTimeout is
// set. With selfcheck, the structural verifier runs after every atom so
// a pass that corrupts the graph is caught at the atom that did it.
func runScript(ctx context.Context, g *aig.AIG, script string, seed int64, flowTimeout time.Duration, selfcheck bool) (*aig.AIG, error) {
	flowCtx := func() (context.Context, context.CancelFunc) {
		if flowTimeout <= 0 {
			return ctx, func() {}
		}
		return context.WithTimeout(ctx, flowTimeout)
	}
	cur := g
	for _, atom := range strings.Split(script, ";") {
		if ctx.Err() != nil {
			return cur, nil
		}
		atom = strings.TrimSpace(atom)
		if atom == "" {
			continue
		}
		// Each single-pass atom is one opt/<pass> step, so the pass
		// summary has one row per pass (rw and rwz share opt/rewrite).
		if p, err := opt.PassByAtom(atom); err == nil {
			cur = p.Run(ctx, cur)
		} else if atom == "compress" {
			fctx, cancel := flowCtx()
			cur = opt.CompressToConvergence(fctx, cur)
			cancel()
		} else {
			flow, err := opt.FlowByName(atom)
			if err != nil {
				return nil, fmt.Errorf("unknown script atom %q", atom)
			}
			fctx, cancel := flowCtx()
			cur = flow.RunCtx(fctx, cur, seed)
			cancel()
		}
		if selfcheck {
			if err := cur.Check(); err != nil {
				return nil, fmt.Errorf("selfcheck after %q: %w", atom, err)
			}
		}
	}
	return cur, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aigopt:", err)
	os.Exit(1)
}
