package lint

// Config parameterizes the analyzers. DefaultConfig encodes this
// repository's invariants; tests substitute fixture-local settings.
type Config struct {
	// RawLitTypes maps a fully-qualified literal type name to the
	// import paths allowed to do raw bit arithmetic on it (the type's
	// defining package plus any codec that must speak the encoding).
	RawLitTypes map[string][]string

	// DeterminismRoots are regular expressions over qualified function
	// names (see QualifiedName). Every function statically reachable
	// from a matching root is required to be reproducible: no map-order
	// iteration with order-sensitive bodies, no time.Now, no unseeded
	// global randomness.
	DeterminismRoots []string

	// MetricNameFuncs lists qualified callables whose string arguments
	// (by index) name telemetry instruments. Names must be compile-time
	// constants in snake_case segments; passing a bare identifier
	// through a helper is allowed (the helper's own call sites are
	// checked instead).
	MetricNameFuncs map[string][]int

	// MetricNamePattern validates constant metric names. Segments are
	// snake_case, separated by '/'.
	MetricNamePattern string

	// FaultPointFuncs lists qualified callables whose string argument
	// (by index) names a fault-injection point. Names must be compile-
	// time constants matching FaultPointPattern, and each name must be
	// instrumented at exactly one call site program-wide; the defining
	// package's own pass-through calls are exempt.
	FaultPointFuncs map[string]int

	// FaultPointPattern validates constant fault point names.
	FaultPointPattern string

	// WithoutCancelAllow lists qualified function names permitted to
	// call context.WithoutCancel. Detaching work from its caller's
	// cancellation is an invariant change; each entry is an audited
	// decision (see ctxflow.go).
	WithoutCancelAllow []string

	// GoLifecycleRoots are regular expressions over qualified function
	// names. Every `go` statement statically reachable from a matching
	// root must carry a lifecycle edge: a WaitGroup join, a context
	// reference, or a channel signal (see golifecycle.go).
	GoLifecycleRoots []string

	// DetachedGoroutines lists qualified function names whose goroutines
	// are deliberately fire-and-forget: either the spawning function or
	// the spawned named function. Each entry is an audited exception to
	// the golifecycle rule.
	DetachedGoroutines []string
}

// DefaultConfig returns the repository's production lint configuration.
func DefaultConfig() *Config {
	return &Config{
		RawLitTypes: map[string][]string{
			// The AIGER codec necessarily manipulates the on-disk
			// variable/complement encoding, which is identical to the
			// in-memory one.
			"repro/internal/aig.Lit": {"repro/internal/aig", "repro/internal/aiger"},
		},
		DeterminismRoots: []string{
			// CSV + checkpoint emission: the byte-identity surface of
			// checkpoint/resume.
			`^repro/internal/harness\.WriteCSV$`,
			`^\(repro/internal/harness\.Checkpointer\)\.Append$`,
			// Table/figure renderers behind the paper's artifacts.
			`^\(repro/internal/harness\.Result\)\.(TableI|TableII|Figure3|Figure3Plot|FigureScatter|CategoryTable|CategorySummary|FailureSummary)$`,
			`^repro/internal/harness\.(Figure2|StageSummary)$`,
			// Telemetry exposition and the stage rollup.
			`^\(repro/internal/telemetry\.Registry\)\.(WritePrometheus|WriteJSON|SummaryTable|SpanSeconds)$`,
			// AIGER serialization: optimized-AIG outputs must be stable.
			`^repro/internal/aiger\.(WriteASCII|WriteBinary|WriteFile)$`,
			// Operator CLI emission: aigw health/status output is
			// diffed across runs (the rolling-restart CI smoke does
			// exactly that), so it must be byte-stable.
			`^repro/cmd/aigw\.(printHealth|printStatus)$`,
			// The optimization passes. Flows and scripts reach them
			// through the opt pass table's function values, which the
			// static call graph does not follow, so each is a root.
			`^repro/internal/opt\.(Balance|RewriteOnce|RefactorOnce|ResubOnce)$`,
			`^repro/internal/lutmap\.RoundTrip$`,
		},
		MetricNameFuncs: map[string][]int{
			"repro/internal/telemetry.Add":                   {0},
			"repro/internal/telemetry.SetGauge":              {0},
			"repro/internal/telemetry.Observe":               {0},
			"(repro/internal/telemetry.Registry).Counter":    {0},
			"(repro/internal/telemetry.Registry).Gauge":      {0},
			"(repro/internal/telemetry.Registry).Histogram":  {0},
			"(repro/internal/telemetry.Registry).RecordSpan": {0},
			// Trace span and attribute names share the metric namespace:
			// span names feed RecordSpan histograms and attribute keys
			// are the grep surface of /v1/debug/traces output.
			"repro/internal/telemetry/trace.Start":        {1},
			"repro/internal/telemetry/trace.StartServer":  {2},
			"repro/internal/telemetry/trace.AddEvent":     {1},
			"repro/internal/telemetry/trace.A":            {0},
			"(repro/internal/telemetry/trace.Span).Attr":  {0},
			"(repro/internal/telemetry/trace.Span).Event": {0},
			// The serving stack's shared HTTP reply path and singleflight
			// take the counters of the surface that uses them.
			"repro/internal/service.NewReplies":     {0, 1},
			"repro/internal/service.NewFlightGroup": {0, 1},
			// Optimization steps name their span and, suffixed, their
			// gates_removed histogram; newPass names the span of each
			// pass in opt's table, which runs as a Step.
			"repro/internal/opt.Step":    {1},
			"repro/internal/opt.newPass": {1},
			// Per-peer cluster instruments are assembled from a dynamic
			// member ID plus a constant suffix; the suffix is the part
			// that must stay snake_case and greppable.
			"repro/internal/cluster.peerMetricName": {1},
		},
		MetricNamePattern: `^[a-z][a-z0-9_]*(/[a-z][a-z0-9_]*)*$`,
		FaultPointFuncs: map[string]int{
			"repro/internal/faultinject.Hit":        0,
			"repro/internal/faultinject.HitCtx":     1,
			"repro/internal/faultinject.WrapWriter": 0,
		},
		FaultPointPattern: `^[a-z][a-z0-9_]*(/[a-z][a-z0-9_]*)*$`,
		WithoutCancelAllow: []string{
			// Replication outlives the triggering request on purpose (a
			// canceled client must not abort a half-replicated write);
			// it is bounded by the node lifetime via baseCtx instead.
			"(repro/internal/cluster.Node).replicate",
		},
		GoLifecycleRoots: []string{
			// The serving surface: daemon/CLI entry points, the service
			// layer, and the cluster node. Goroutines reachable from
			// these must be joinable or cancelable, or Drain/Close leak
			// live work.
			`^repro/cmd/`,
			`^repro/internal/service\.`,
			`^repro/internal/cluster\.`,
		},
		DetachedGoroutines: []string{
			// Registry.Serve hands the listener loop to net/http; its
			// lifecycle is owned by the *http.Server (Shutdown/Close),
			// not by a channel or WaitGroup visible at the spawn site.
			"(repro/internal/telemetry.Registry).Serve",
		},
	}
}
