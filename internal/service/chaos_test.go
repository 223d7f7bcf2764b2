package service

// The daemon half of the chaos suite: deterministic fault injection
// against a live aigd. See internal/harness/chaos_test.go for the
// invariant list; here the focus is the service's additions — spill
// degradation, startup crash recovery, idempotent retry accounting,
// and abrupt-kill restart. Run via `make chaos` (always under -race).

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
)

// armChaos enables one armed fault for the duration of the test.
func armChaos(t testing.TB, name string, tr faultinject.Trigger, f faultinject.Fault) {
	t.Helper()
	faultinject.Reset()
	faultinject.Arm(name, tr, f)
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
}

// spillingDaemon builds a daemon whose every job result spills.
func spillingDaemon(t *testing.T, dir string) *testDaemon {
	t.Helper()
	return newTestDaemon(t, Config{Workers: 2, SpillDir: dir, SpillBytes: 1})
}

// TestRetryAfterScaling: the shed hint tracks daemon state instead of
// a hardcoded constant — 1s idle, proportional to backlog per worker,
// pinned to the cap while draining.
func TestRetryAfterScaling(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	if got := d.svc.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle hint = %d, want 1", got)
	}
	d.svc.jobsAdm.pending.Store(20)
	if got := d.svc.retryAfterSeconds(); got != 11 {
		t.Fatalf("backlogged hint = %d, want 1+20/2", got)
	}
	d.svc.jobsAdm.pending.Store(1000)
	if got := d.svc.retryAfterSeconds(); got != 30 {
		t.Fatalf("hint is not capped: %d", got)
	}
	d.svc.jobsAdm.pending.Store(0)
	d.svc.draining.Store(true)
	if got := d.svc.retryAfterSeconds(); got != 30 {
		t.Fatalf("draining hint = %d, want the cap", got)
	}
	d.svc.draining.Store(false)
}

// TestChaosShedCarriesScaledRetryAfter: a daemon forced to shed by the
// pool-submit fault answers 429 with a parseable, scaled Retry-After.
func TestChaosShedCarriesScaledRetryAfter(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	fp := d.submit(t, testAIG(t, 40)).Fingerprint
	armChaos(t, PointPoolSubmit, faultinject.Always(), faultinject.Fault{Mode: faultinject.ModeError})

	body := `{"aig":"` + fp + `"}`
	req, err := http.NewRequest("POST", d.ts.URL+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After = %q, want an integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	if d.svc.jobsAdm.pending.Load() != 0 {
		t.Fatal("shed request leaked an admission slot")
	}
}

// TestChaosSpillTornWrite: a torn write during job-result spill
// degrades to serving the result from memory — the job still succeeds,
// the error is counted, and no torn spill file is ever visible.
func TestChaosSpillTornWrite(t *testing.T) {
	dir := t.TempDir()
	d := spillingDaemon(t, dir)
	fp := d.submit(t, testAIG(t, 41)).Fingerprint
	armChaos(t, harness.PointAtomicWrite, faultinject.Always(),
		faultinject.Fault{Mode: faultinject.ModeTornWrite, KeepBytes: 11})

	var acc JobAccepted
	if code := d.do(t, "POST", "/v1/optimize", `{"aig":"`+fp+`"}`, &acc); code != http.StatusAccepted {
		t.Fatalf("optimize status %d", code)
	}
	v := d.waitJob(t, acc.ID)
	if v.Status != JobDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	// Result served inline, not as a SpillRef pointing at a torn file.
	res, ok := v.Result.(map[string]any)
	if !ok {
		t.Fatalf("result has unexpected shape %T", v.Result)
	}
	if _, spilled := res["spilled_to"]; spilled {
		t.Fatal("torn spill was handed to the client as a SpillRef")
	}
	if got := d.counter("service/spill_errors"); got < 1 {
		t.Fatalf("spill_errors = %d, want >= 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("torn spill left artifacts: %v", entries)
	}
}

// TestChaosSpillENOSPC: same degradation contract when the spill point
// itself reports a full disk before any byte is written.
func TestChaosSpillENOSPC(t *testing.T) {
	dir := t.TempDir()
	d := spillingDaemon(t, dir)
	fp := d.submit(t, testAIG(t, 42)).Fingerprint
	armChaos(t, PointSpill, faultinject.Always(), faultinject.Fault{Mode: faultinject.ModeENOSPC})

	var acc JobAccepted
	if code := d.do(t, "POST", "/v1/optimize", `{"aig":"`+fp+`"}`, &acc); code != http.StatusAccepted {
		t.Fatalf("optimize status %d", code)
	}
	if v := d.waitJob(t, acc.ID); v.Status != JobDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if got := d.counter("service/spill_errors"); got != 1 {
		t.Fatalf("spill_errors = %d, want 1", got)
	}
}

// TestChaosRestartRecoverySweep is the startup-sweep regression test:
// a fresh daemon pointed at a spill directory littered with the debris
// of a killed predecessor — an orphaned atomic-write temp, a stale
// spill, and an unrelated file — quarantines exactly the debris.
func TestChaosRestartRecoverySweep(t *testing.T) {
	dir := t.TempDir()
	orphanTemp := filepath.Join(dir, "job-j000007.json.atomictmp-55512")
	staleSpill := filepath.Join(dir, "job-j000003.json")
	unrelated := filepath.Join(dir, "operator-notes.txt")
	for _, p := range []string{orphanTemp, staleSpill, unrelated} {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d := newTestDaemon(t, Config{Workers: 2, SpillDir: dir, SpillBytes: 1})
	for _, gone := range []string{orphanTemp, staleSpill} {
		if _, err := os.Stat(gone); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("startup sweep left %s behind", filepath.Base(gone))
		}
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Error("startup sweep removed an unrelated file")
	}
	if got := d.counter("harness/orphan_temps_swept"); got != 1 {
		t.Errorf("orphan_temps_swept = %d, want 1", got)
	}
	if got := d.counter("service/orphan_spills_swept"); got != 1 {
		t.Errorf("orphan_spills_swept = %d, want 1", got)
	}

	// The swept directory is immediately usable: a new job spills fine.
	fp := d.submit(t, testAIG(t, 43)).Fingerprint
	var acc JobAccepted
	if code := d.do(t, "POST", "/v1/optimize", `{"aig":"`+fp+`"}`, &acc); code != http.StatusAccepted {
		t.Fatalf("optimize status %d", code)
	}
	if v := d.waitJob(t, acc.ID); v.Status != JobDone {
		t.Fatalf("post-sweep job ended %s (%s)", v.Status, v.Error)
	}
	if got := d.counter("service/spills"); got != 1 {
		t.Fatalf("spills = %d, want 1", got)
	}
}

// TestChaosIdempotentRetryNoSlotLeak: two submissions under one
// Idempotency-Key — the retry pattern of a client whose first response
// was lost — produce one job, one pool task, and zero leaked admission
// slots.
func TestChaosIdempotentRetryNoSlotLeak(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	fp := d.submit(t, testAIG(t, 44)).Fingerprint

	post := func() JobAccepted {
		t.Helper()
		req, err := http.NewRequest("POST", d.ts.URL+"/v1/optimize", strings.NewReader(`{"aig":"`+fp+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "retry-key-1")
		resp, err := d.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status = %d, want 202", resp.StatusCode)
		}
		var acc JobAccepted
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		return acc
	}
	first := post()
	second := post()
	if first.ID != second.ID {
		t.Fatalf("retry created a second job: %s vs %s", first.ID, second.ID)
	}
	if v := d.waitJob(t, first.ID); v.Status != JobDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if got := d.counter("service/jobs_submitted"); got != 1 {
		t.Fatalf("jobs_submitted = %d, want 1", got)
	}
	if got := d.counter("service/idempotent_replays"); got != 1 {
		t.Fatalf("idempotent_replays = %d, want 1", got)
	}
	// Both requests' slots are back: the original via the job's onExit,
	// the duplicate immediately on dedup.
	deadline := time.Now().Add(5 * time.Second)
	for d.svc.jobsAdm.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots leaked: pending = %d", d.svc.jobsAdm.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// A different key legitimately schedules a fresh job.
	req, err := http.NewRequest("POST", d.ts.URL+"/v1/optimize", strings.NewReader(`{"aig":"`+fp+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "retry-key-2")
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if acc.ID == first.ID {
		t.Fatal("distinct key deduplicated onto the old job")
	}
}

// TestChaosKillAndRestartMidSpill kills a spilling daemon abruptly —
// Close with no drain, jobs possibly mid-flight, spill latency armed
// to widen the window — then restarts on the same directory and
// requires full service: the restart sweeps the debris and completes
// fresh spilling jobs. Goroutine counts must return to baseline (no
// leaked workers or job tasks).
func TestChaosKillAndRestartMidSpill(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()

	armChaos(t, PointStorePut, faultinject.Always(),
		faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 5 * time.Millisecond})

	// Life 1: a spilling daemon with jobs in flight, killed abruptly.
	d1 := spillingDaemon(t, dir)
	fp := d1.submit(t, testAIG(t, 45)).Fingerprint
	for i := 0; i < 4; i++ {
		var acc JobAccepted
		d1.do(t, "POST", "/v1/optimize", `{"aig":"`+fp+`"}`, &acc)
	}
	d1.ts.Close()
	d1.svc.Close() // abrupt: no Drain, queued jobs die with the process

	faultinject.Disable()
	faultinject.Reset()

	// Life 2: restart over the same directory; the sweep runs in New
	// and the daemon must be fully serviceable.
	d2 := spillingDaemon(t, dir)
	fp2 := d2.submit(t, testAIG(t, 45)).Fingerprint
	var acc JobAccepted
	if code := d2.do(t, "POST", "/v1/optimize", `{"aig":"`+fp2+`"}`, &acc); code != http.StatusAccepted {
		t.Fatalf("post-restart optimize status %d", code)
	}
	if v := d2.waitJob(t, acc.ID); v.Status != JobDone {
		t.Fatalf("post-restart job ended %s (%s)", v.Status, v.Error)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".atomictmp-") {
			t.Fatalf("restart left an orphan temp: %s", e.Name())
		}
	}
	d2.ts.Close()
	d2.svc.Close()

	// Both lives fully stopped: goroutines settle back to baseline
	// (poll briefly — worker exit is asynchronous with Close returning).
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
