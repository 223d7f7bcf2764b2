// Package service implements aigd, the diversity-as-a-service daemon:
// a long-running HTTP/JSON layer over the paper's similarity framework
// that makes structural-diversity scoring cheap enough to sit in front
// of every expensive optimization run.
//
// The subsystem is built from five pieces, each sized for sustained
// traffic:
//
//   - a content-addressed AIG store keyed by canonical structural
//     fingerprint (aig.Fingerprint), so an identical structure is
//     parsed, validated, and profiled exactly once no matter how many
//     clients submit it;
//   - a sharded LRU result cache with one pointer-free entry per
//     unordered fingerprint pair, holding that pair's scores for every
//     metric, whose hits are bit-identical to fresh computation, with
//     singleflight deduplication of concurrent identical requests;
//   - a bounded worker pool fed by a coalescing batch path: per-graph
//     preprocessing (NetSimile features, WL labels, spectra, reduction
//     vectors) is computed once per graph per batch, never once per
//     pair;
//   - an admission layer with per-endpoint queue-depth budgets that
//     sheds load with 429 + Retry-After instead of collapsing;
//   - an async job engine (optimization flows, full ROD-style pair
//     reports) with IDs, polling, cancellation, panic isolation via
//     the harness guard machinery, and atomic on-disk spill of large
//     results.
//
// Everything is instrumented through internal/telemetry and served
// alongside the existing /metrics and /debug endpoints; SIGTERM drains
// in-flight jobs before exit.
package service

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the worker pool's backlog (default 4×Workers).
	QueueDepth int
	// PendingMetrics and PendingJobs are the per-endpoint admission
	// budgets: requests admitted but not yet finished (defaults
	// 2×QueueDepth and QueueDepth).
	PendingMetrics int
	PendingJobs    int
	// CacheEntries bounds the pairwise result cache in AIG pairs, each
	// with room for all ten scores (default 65536; about 215 B a pair).
	CacheEntries int
	// StoreEntries bounds the content-addressed AIG store (default 4096).
	StoreEntries int
	// JobHistory bounds retained finished jobs (default 256).
	JobHistory int
	// SpillDir, when set, receives job results larger than SpillBytes
	// as atomically written JSON files (default off; SpillBytes
	// defaults to 256 KiB).
	SpillDir   string
	SpillBytes int
	// Trace, when set, is served on /v1/debug/traces alongside the API.
	// It should be the same store installed with trace.SetCollector —
	// the Handler only reads it.
	Trace *trace.Store
	// Events, when set, receives a structured "http_request" access-log
	// line per finished request (trace ID, endpoint, status, bytes,
	// duration) on the JSONL event stream.
	Events *telemetry.EventLogger
	// SLOTarget is the per-request latency objective behind the
	// per-endpoint slo_breaches counters (default 500ms).
	SLOTarget time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.PendingMetrics <= 0 {
		c.PendingMetrics = 2 * c.QueueDepth
	}
	if c.PendingJobs <= 0 {
		c.PendingJobs = c.QueueDepth
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1 << 16
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 4096
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.SpillBytes <= 0 {
		c.SpillBytes = 256 << 10
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = defaultSLOTarget
	}
	return c
}

// Server is one running daemon instance. Create it with New, mount
// Handler on an http.Server, and call Drain then Close on shutdown.
type Server struct {
	cfg   Config
	store *store
	cache *resultCache

	flights    *FlightGroup[float64]
	pool       *pool
	jobs       *jobManager
	metricsAdm admission
	jobsAdm    admission

	// pairRouter and onIntern, when set (SetClusterHooks), splice the
	// cluster layer into the scoring and submission paths. Written
	// before the handler serves, read-only afterwards.
	pairRouter PairRouter
	onIntern   InternObserver

	baseCtx  context.Context
	baseStop context.CancelFunc
	draining atomic.Bool

	// drainHint, when set (SetDrainRetryHint), estimates how many
	// seconds of handoff backlog remain while draining; drain-mode
	// 503s scale their Retry-After by it instead of pinning the cap.
	drainHint atomic.Pointer[func() int]

	// testComputeDelay, when set by tests, runs inside the
	// singleflighted metric computation to widen the race window.
	testComputeDelay func()
}

// New builds a Server from cfg (zero value = defaults). When a spill
// directory is configured, New first runs the crash-recovery sweep
// over it (see RecoverSpillDir): orphaned atomic-write temps and stale
// spill files from a previous daemon life are quarantined before any
// new spill can collide with them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.SpillDir != "" {
		// Sweep failure is not startup failure: the daemon still serves,
		// the recovery_errors counter records the degradation.
		_, _, _ = RecoverSpillDir(cfg.SpillDir, cfg.Events)
	}
	//lint:ignore ctxflow the server base context is the daemon-lifetime root, canceled in Close — background jobs derive from it
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		store:    newStore(cfg.StoreEntries),
		cache:    newResultCache(cfg.CacheEntries),
		flights:  NewFlightGroup[float64]("service/singleflight_shared", "service/singleflight_abandoned"),
		pool:     newPool(cfg.Workers, cfg.QueueDepth),
		jobs:     newJobManager(cfg.JobHistory, cfg.SpillDir, cfg.SpillBytes),
		baseCtx:  ctx,
		baseStop: stop,
	}
	// Splice the sketch layer into the store: every interned entry gets
	// its base profile and retrieval signature built by prepare, and
	// index membership mirrors LRU membership under the store lock.
	s.store.index = sketch.NewIndex()
	s.store.prepare = s.prepareEntry
	s.metricsAdm.limit = int64(cfg.PendingMetrics)
	s.jobsAdm.limit = int64(cfg.PendingJobs)
	return s
}

// SetDrainRetryHint installs an estimator for drain-mode Retry-After:
// the seconds a refused client should wait before the departing node's
// keys are reachable elsewhere. The cluster layer derives it from its
// handoff backlog; without a hint, drain 503s advertise the fixed cap.
// Safe to call at any time (the slot is atomic).
func (s *Server) SetDrainRetryHint(fn func() int) {
	if fn == nil {
		s.drainHint.Store(nil)
		return
	}
	s.drainHint.Store(&fn)
}

// Drain puts the server into drain mode — every new request is refused
// with 503 — and waits for in-flight jobs to complete, or for ctx to
// expire, whichever comes first. It is the SIGTERM path: submitted
// work finishes, nothing new is admitted.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.jobs.drainJobs(ctx)
}

// Close cancels whatever Drain left running and stops the worker pool.
func (s *Server) Close() {
	s.draining.Store(true)
	s.baseStop()
	s.pool.shutdown()
}

// DrainTimeoutDefault is the default SIGTERM drain budget used by
// cmd/aigd.
const DrainTimeoutDefault = 30 * time.Second
