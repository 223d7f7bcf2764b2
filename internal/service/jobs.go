package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// PointSpill is the fault-injection point on the job-result spill
// path, in front of the atomic write. Spill failure is never job
// failure: the result stays in memory and the spill_errors counter
// records the degradation.
const PointSpill = "service/spill"

// JobStatus is the lifecycle state of an async job.
type JobStatus string

// Job lifecycle states. queued → running → done|failed; canceled can
// be entered from queued or running.
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// JobView is the externally visible snapshot of a job, as served by the
// poll endpoint.
type JobView struct {
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	Status JobStatus `json:"status"`
	// TraceID is the trace of the submit request that created the job
	// ("" when tracing was off at submit time): the async work, its
	// spill write, and the originating HTTP request all share it, and
	// it is retrievable from /v1/debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
	// Result holds the job's output once Status is done. Results larger
	// than the spill threshold are written to disk atomically and
	// replaced by a SpillRef.
	Result any `json:"result,omitempty"`
}

// SpillRef points at a job result spilled to disk.
type SpillRef struct {
	SpilledTo string `json:"spilled_to"`
	Bytes     int    `json:"bytes"`
}

// jobRun is a job's body; it runs under the job's context.
type jobRun func(ctx context.Context) (any, error)

// errKeyReused refuses a submission whose Idempotency-Key names a
// retained job of another kind or request.
var errKeyReused = errors.New("key reused for a different request")

type job struct {
	// idemKey is the Idempotency-Key the job was submitted under ("" if
	// none), and req the canonical JSON of its decoded request: a replay
	// under the key must match view.Kind and req. Immutable after
	// creation; the manager uses idemKey to clear the dedup entry when
	// the job is pruned.
	idemKey, req string

	mu     sync.Mutex
	view   JobView
	cancel context.CancelFunc
	done   chan struct{}
}

func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

// jobManager owns async job lifecycles: IDs, status transitions,
// cancellation, panic isolation (via the harness guard machinery), the
// on-disk spill of oversized results, and bounded retention of
// completed jobs.
type jobManager struct {
	mu       sync.Mutex
	jobs     map[string]*job
	idem     map[string]*job // Idempotency-Key → job, while the job is retained
	seq      int64
	history  int
	inflight sync.WaitGroup

	spillDir   string
	spillBytes int
}

func newJobManager(history int, spillDir string, spillBytes int) *jobManager {
	return &jobManager{
		jobs:       make(map[string]*job),
		idem:       make(map[string]*job),
		history:    history,
		spillDir:   spillDir,
		spillBytes: spillBytes,
	}
}

// submit registers a job and schedules run on the pool. run executes
// under ctx (canceled by DELETE /v1/jobs/{id} or server shutdown) with
// panic isolation: a panicking job fails and is quarantined exactly
// like a panicking harness variant, the daemon keeps serving.
//
// idemKey, when non-empty, deduplicates retried submissions: a second
// submit carrying the key of a still-retained job of the same kind and
// canonical request req returns that job with dup=true instead of
// scheduling anything, so a client retrying into a half-dead daemon
// can neither double-spend an admission slot nor create a duplicate
// job. The key reused for another kind or request is refused with
// errKeyReused — answering with the retained job would hand the caller
// another request's result. The dedup entry lives exactly as long as
// the job (cleared on prune and on failed scheduling), and the
// existing-job check is atomic with registration, so concurrent
// retries collapse onto one job too.
//
// onExit, when non-nil, runs exactly once when the pool task exits —
// on every path, including cancellation while still queued and panics —
// so callers can tie resources (e.g. an admission slot) to the job's
// lifetime rather than to run executing. When submit returns an error
// or dup=true the task was never scheduled and onExit is NOT called;
// the caller still owns its resources.
//
// rctx is the submitting request's context: its trace identity (not
// its lifetime) is carried over onto the job, so the async work and
// its spill write stitch into the originating request's trace even
// though they run under the long-lived base ctx.
func (m *jobManager) submit(ctx, rctx context.Context, p *pool, kind, idemKey, req string, run jobRun, onExit func()) (j *job, dup bool, err error) {
	sc := trace.FromContext(rctx)
	jctx, cancel := context.WithCancel(trace.ContextWithRemote(ctx, sc))
	m.mu.Lock()
	if idemKey != "" {
		if prior, ok := m.idem[idemKey]; ok {
			m.mu.Unlock()
			cancel()
			if prior.snapshot().Kind != kind || prior.req != req {
				return nil, false, fmt.Errorf("%w: Idempotency-Key %q", errKeyReused, idemKey)
			}
			telemetry.Add("service/idempotent_replays", 1)
			// The replaying request gets no job spans of its own — the
			// original submission's trace carries them — so mark the
			// replay on this request's trace instead.
			trace.AddEvent(rctx, "idempotent_replay", trace.A("job_id", prior.snapshot().ID))
			return prior, true, nil
		}
	}
	m.seq++
	id := fmt.Sprintf("j%06d", m.seq)
	j = &job{
		idemKey: idemKey,
		req:     req,
		view:    JobView{ID: id, Kind: kind, Status: JobQueued, TraceID: traceIDString(sc)},
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	m.jobs[id] = j
	if idemKey != "" {
		m.idem[idemKey] = j
	}
	m.mu.Unlock()

	// The queue-wait span measures submit-to-pickup for the async path;
	// it lives on the job's trace, not the request context, because the
	// wait routinely outlives the submitting request.
	_, qspan := trace.Start(jctx, "service/job_queue_wait")
	qspan.Attr("job_id", id)

	m.inflight.Add(1)
	ok := p.trySubmit(rctx, func() {
		qspan.End()
		defer m.inflight.Done()
		defer close(j.done)
		defer m.prune()
		if onExit != nil {
			defer onExit()
		}
		// Detach jctx from the long-lived base context once the job is
		// over; otherwise every finished job would stay registered on
		// baseCtx for the daemon's lifetime.
		defer cancel()
		if jctx.Err() != nil { // canceled while queued
			m.finish(jctx, j, JobCanceled, nil, jctx.Err())
			return
		}
		j.mu.Lock()
		j.view.Status = JobRunning
		j.mu.Unlock()
		telemetry.Add("service/jobs_started", 1)

		sctx, jspan := trace.Start(jctx, "service/job")
		jspan.Attr("kind", kind).Attr("job_id", id)
		res, err := m.runGuarded(sctx, kind, run)
		switch {
		case err != nil && jctx.Err() != nil:
			m.finish(sctx, j, JobCanceled, nil, err)
		case err != nil:
			m.finish(sctx, j, JobFailed, nil, err)
		default:
			m.finish(sctx, j, JobDone, res, nil)
		}
		jspan.Attr("status", string(j.snapshot().Status))
		jspan.Fail(err)
		jspan.End()
	})
	if !ok {
		qspan.Fail(ErrBusy)
		qspan.End()
		m.inflight.Done()
		cancel()
		m.mu.Lock()
		delete(m.jobs, id)
		if idemKey != "" {
			delete(m.idem, idemKey)
		}
		m.mu.Unlock()
		return nil, false, ErrBusy
	}
	telemetry.Add("service/jobs_submitted", 1)
	return j, false, nil
}

// traceIDString renders a span context's trace ID ("" when invalid).
func traceIDString(sc trace.SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID.String()
}

// runGuarded executes the job body with the harness panic guard: a
// panic becomes an error (and a harness/panics_recovered count), never
// a crashed daemon.
func (m *jobManager) runGuarded(ctx context.Context, kind string, run jobRun) (res any, err error) {
	defer harness.Recover(&err, "service job "+kind)
	return run(ctx)
}

func (m *jobManager) finish(ctx context.Context, j *job, status JobStatus, res any, err error) {
	if res != nil && status == JobDone {
		res = m.maybeSpill(ctx, j.snapshot().ID, res)
	}
	j.mu.Lock()
	j.view.Status = status
	j.view.Result = res
	if err != nil {
		j.view.Error = err.Error()
	}
	j.mu.Unlock()
	switch status {
	case JobDone:
		telemetry.Add("service/jobs_done", 1)
	case JobFailed:
		telemetry.Add("service/jobs_failed", 1)
	case JobCanceled:
		telemetry.Add("service/jobs_canceled", 1)
	}
}

// maybeSpill writes an oversized result to disk through the harness's
// fsync-before-rename helper and returns a SpillRef in its place, so
// the in-memory job table stays small under heavy result traffic and a
// crash mid-spill can never leave a torn file.
func (m *jobManager) maybeSpill(ctx context.Context, id string, res any) any {
	if m.spillDir == "" {
		return res
	}
	body, err := json.Marshal(res)
	if err != nil || len(body) < m.spillBytes {
		return res
	}
	sctx, sspan := trace.Start(ctx, "service/job_spill")
	defer sspan.End()
	sspan.Attr("job_id", id).Attr("bytes", len(body))
	if err := faultinject.HitCtx(sctx, PointSpill); err != nil {
		telemetry.Add("service/spill_errors", 1)
		sspan.Fail(err)
		return res
	}
	path := filepath.Join(m.spillDir, "job-"+id+".json")
	if err := harness.WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(body)
		return werr
	}); err != nil {
		// Spill failure is not job failure: serve the result in memory.
		telemetry.Add("service/spill_errors", 1)
		sspan.Fail(err)
		return res
	}
	telemetry.Add("service/spills", 1)
	return SpillRef{SpilledTo: path, Bytes: len(body)}
}

// get returns a snapshot of the job.
func (m *jobManager) get(id string) (JobView, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.snapshot(), true
}

// cancelJob requests cancellation; the job transitions to canceled when
// its body observes the context (or immediately if still queued).
func (m *jobManager) cancelJob(id string) (JobView, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	j.cancel()
	return j.snapshot(), true
}

// prune evicts the oldest finished jobs beyond the retention budget;
// queued and running jobs are never evicted.
func (m *jobManager) prune() {
	m.mu.Lock()
	defer m.mu.Unlock()
	type finished struct {
		id   string
		view JobView
	}
	var done []finished
	for id, j := range m.jobs {
		v := j.snapshot()
		if v.Status == JobDone || v.Status == JobFailed || v.Status == JobCanceled {
			done = append(done, finished{id, v})
		}
	}
	if len(done) <= m.history {
		return
	}
	// IDs are sequential, so lexicographic order (equal width) is age
	// order: evict oldest first. An evicted job's idempotency entry goes
	// with it — a replayed key after eviction legitimately submits a
	// fresh job (and spends a fresh admission slot).
	sort.Slice(done, func(i, k int) bool { return done[i].id < done[k].id })
	for _, f := range done[:len(done)-m.history] {
		if key := m.jobs[f.id].idemKey; key != "" {
			delete(m.idem, key)
		}
		delete(m.jobs, f.id)
	}
}

// drainJobs waits until every queued or running job finishes, or ctx
// expires.
func (m *jobManager) drainJobs(ctx context.Context) error {
	idle := make(chan struct{})
	go func() {
		m.inflight.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
