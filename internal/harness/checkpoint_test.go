package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// writerFunc adapts a function to io.Writer so tests can observe (and
// react to) per-spec progress lines.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestKillAndResumeByteIdentical is the checkpoint acceptance test: a
// run cancelled partway through and resumed from its checkpoint must
// reproduce the uninterrupted run's tables and CSV byte for byte.
func TestKillAndResumeByteIdentical(t *testing.T) {
	cfg := quickConfig()

	ref, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := WriteCSV(&refCSV, ref); err != nil {
		t.Fatal(err)
	}

	// First leg: checkpoint every spec, cancel after the second one
	// completes (the cancel lands via the progress hook, which fires
	// after the record is appended).
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, records, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if records != nil {
		t.Fatalf("fresh checkpoint returned %d records", len(records))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	first := cfg
	first.Checkpoint = ckpt
	first.Progress = writerFunc(func(p []byte) (int, error) {
		if done++; done == 2 {
			cancel()
		}
		return len(p), nil
	})
	partial, err := RunContext(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if len(partial.Specs) != 2 {
		t.Fatalf("interrupted run kept %d specs, want 2", len(partial.Specs))
	}

	// Second leg: resume from the checkpoint and run to completion.
	ckpt2, records, err := OpenCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("resume loaded %d records, want 2", len(records))
	}
	second := cfg
	second.Checkpoint = ckpt2
	second.Resume = records
	resumed, err := RunContext(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatal("resumed run marked Interrupted")
	}

	if got, want := resumed.TableI(), ref.TableI(); got != want {
		t.Errorf("Table I differs after resume:\n--- resumed ---\n%s--- reference ---\n%s", got, want)
	}
	if got, want := resumed.TableII(), ref.TableII(); got != want {
		t.Errorf("Table II differs after resume:\n--- resumed ---\n%s--- reference ---\n%s", got, want)
	}
	if got, want := resumed.CategorySummary(), ref.CategorySummary(); got != want {
		t.Errorf("category summary differs after resume:\n%s\nvs\n%s", got, want)
	}
	var gotCSV bytes.Buffer
	if err := WriteCSV(&gotCSV, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Error("CSV differs after resume")
	}

	// The resumed run kept appending: the file now replays completely.
	all, _, err := LoadCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ref.Specs) {
		t.Errorf("final checkpoint holds %d records, want %d", len(all), len(ref.Specs))
	}
}

// TestCheckpointTornLineRecovery simulates a kill mid-append: the torn
// final line is dropped on load and truncated away on resume, so the
// file stays appendable.
func TestCheckpointTornLineRecovery(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSpecs = 2
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, _, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	run.Checkpoint = ckpt
	if _, err := RunContext(context.Background(), run); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"spec":"torn-mid-wri`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpt2, records, err := OpenCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("loaded %d records past torn line, want 2", len(records))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(intact) - len(`{"spec":"torn-mid-wri`)
	if len(after) != wantLen {
		t.Errorf("resume left %d bytes, want torn suffix truncated to %d", len(after), wantLen)
	}
}

// TestCheckpointRejectsForeignConfig asserts the fingerprint guard: a
// checkpoint written under one configuration must not silently feed a
// run with another.
func TestCheckpointRejectsForeignConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSpecs = 1
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, _, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, _, err := LoadCheckpoint(path, other); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("foreign-config load error = %v", err)
	}
	if _, _, err := OpenCheckpoint(path, other, true); err == nil {
		t.Error("foreign-config resume should error")
	}

	// A file that is not a checkpoint at all is rejected by format.
	bogus := filepath.Join(t.TempDir(), "bogus.ckpt")
	if err := os.WriteFile(bogus, []byte("spec,recipeA,recipeB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(bogus, cfg); err == nil || !strings.Contains(err.Error(), checkpointFormat) {
		t.Errorf("non-checkpoint load error = %v", err)
	}
}

// TestCheckpointFingerprintStable pins the fingerprint's input bytes: a
// checkpoint written by an earlier build under the same flags must keep
// resuming, so changing what the fingerprint digests is a format break.
func TestCheckpointFingerprintStable(t *testing.T) {
	fp, err := Config{Seed: 2024, MaxInputs: 6}.fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := "174aa05f3489cf59"; fp != want {
		t.Errorf("fingerprint = %s, want %s", fp, want)
	}
}

// TestResumeDivergentSuiteRecomputes covers the prefix rule: once the
// checkpointed order diverges from the suite (here: records reversed),
// the divergent tail is recomputed rather than misattributed.
func TestResumeDivergentSuiteRecomputes(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSpecs = 2
	ref, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, _, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	run.Checkpoint = ckpt
	if _, err := RunContext(context.Background(), run); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	records, _, err := LoadCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("loaded %d records, want 2", len(records))
	}
	records[0], records[1] = records[1], records[0]
	resumed := cfg
	resumed.Resume = records
	res, err := RunContext(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.TableII(), ref.TableII(); got != want {
		t.Errorf("divergent resume corrupted results:\n%s\nvs\n%s", got, want)
	}
}

// TestPreCancelledRunEmitsEmptyResult: cancellation before the first
// spec still yields a well-formed (empty, Interrupted) result whose
// table renderers do not panic.
func TestPreCancelledRunEmitsEmptyResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("pre-cancelled run not marked Interrupted")
	}
	if len(res.Specs) != 0 || len(res.Pairs) != 0 {
		t.Errorf("pre-cancelled run kept %d specs, %d pairs", len(res.Specs), len(res.Pairs))
	}
	for _, out := range []string{res.TableI(), res.TableII(), res.CategorySummary()} {
		if out == "" {
			t.Error("empty-result renderer produced nothing")
		}
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
}

// TestFlowTimeoutDegradesGracefully: with an already-expired per-flow
// budget every flow returns its input unchanged (the best equivalent
// AIG it has), the run completes, and the timeout counter records it.
func TestFlowTimeoutDegradesGracefully(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Enable()
	defer telemetry.Disable()

	cfg := quickConfig()
	cfg.MaxSpecs = 1
	cfg.FlowTimeout = time.Nanosecond
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Error("flow timeouts must not interrupt the run")
	}
	if len(res.Specs) != 1 {
		t.Fatalf("got %d specs", len(res.Specs))
	}
	for _, v := range res.Specs[0].Variants {
		for flow, gates := range v.FlowGates {
			if gates != v.Gates {
				t.Errorf("%s/%s: expired budget still optimized %d -> %d", v.Recipe, flow, v.Gates, gates)
			}
		}
	}
	if got := reg.Counter("harness/flow_timeouts").Value(); got == 0 {
		t.Error("flow_timeouts counter not incremented")
	}
}
