package harness

// The chaos suite: deterministic fault injection (internal/faultinject)
// driving the harness's crash paths. Each test arms a failure schedule
// that a kill, a full disk, or a flaky filesystem would produce for
// real, and asserts the crash-consistency invariants documented in
// DESIGN.md:
//
//  1. a reader never observes a torn results file — the target of an
//     atomic replace holds the old complete content or the new
//     complete content, nothing else;
//  2. failed writes leave no temp-file litter (and a startup sweep
//     quarantines what an actual kill would leave);
//  3. a checkpoint resumed over any torn tail reproduces the
//     uninterrupted run byte-identically;
//  4. injected failures surface as typed, wrapped errors, never as
//     silent corruption.
//
// Run it via `make chaos` (always under -race).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultinject"
)

// armChaos enables one armed fault for the duration of the test.
func armChaos(t *testing.T, name string, tr faultinject.Trigger, f faultinject.Fault) {
	t.Helper()
	faultinject.Reset()
	faultinject.Arm(name, tr, f)
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
}

// TestChaosAtomicWriteFaultMatrix kills the atomic replace at every
// step that can fail. Whatever fires, the invariants hold: the old
// file survives untouched, no temp litter remains, and the failure is
// a typed error wrapping the injected cause.
func TestChaosAtomicWriteFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		point string
		fault faultinject.Fault
		cause error
	}{
		{"create-enospc", PointAtomicCreate, faultinject.Fault{Mode: faultinject.ModeENOSPC}, syscall.ENOSPC},
		{"write-enospc", PointAtomicWrite, faultinject.Fault{Mode: faultinject.ModeENOSPC}, syscall.ENOSPC},
		{"write-torn", PointAtomicWrite, faultinject.Fault{Mode: faultinject.ModeTornWrite, KeepBytes: 3}, faultinject.Err},
		{"sync-eio", PointAtomicSync, faultinject.Fault{Mode: faultinject.ModeFsync}, syscall.EIO},
		{"rename-error", PointAtomicRename, faultinject.Fault{Mode: faultinject.ModeError}, faultinject.Err},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.csv")
			if err := os.WriteFile(path, []byte("old complete content\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			armChaos(t, tc.point, faultinject.Always(), tc.fault)

			err := WriteFileAtomic(path, func(w io.Writer) error {
				_, werr := w.Write([]byte("new content that must never appear torn\n"))
				return werr
			})
			if err == nil {
				t.Fatal("fault did not surface")
			}
			if !errors.Is(err, faultinject.Err) || !errors.Is(err, tc.cause) {
				t.Fatalf("error %v does not wrap faultinject.Err and %v", err, tc.cause)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if string(got) != "old complete content\n" {
				t.Fatalf("target corrupted by failed replace: %q", got)
			}
			entries, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if len(entries) != 1 {
				t.Fatalf("temp litter after failure: %v", entries)
			}
		})
	}
}

// TestChaosCSVDiskFull hits ENOSPC partway through the production CSV
// export composition: some bytes land in the temp file, then the disk
// fills. The half-written temp must never be renamed in.
func TestChaosCSVDiskFull(t *testing.T) {
	// Enough pairs that the CSV spans several underlying writes, so the
	// disk can fill mid-export rather than before the first byte.
	res := &Result{MetricNames: []string{"RGC"}, FlowNames: []string{"orchestrate"}}
	for i := 0; i < 400; i++ {
		res.Pairs = append(res.Pairs, PairSample{
			Spec: "s", RecipeA: "a", RecipeB: "b",
			Metrics: map[string]float64{"RGC": 0.5},
			ROD:     map[string]float64{"orchestrate": 0.25},
		})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pairs.csv")
	// The disk fills on the CSV writer's second flush to the temp file.
	armChaos(t, PointAtomicWrite, faultinject.FromCall(2), faultinject.Fault{Mode: faultinject.ModeENOSPC})

	err := WriteFileAtomic(path, func(w io.Writer) error { return WriteCSV(w, res) })
	if err == nil {
		t.Fatal("ENOSPC did not surface")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error %v does not wrap ENOSPC", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("partial CSV became visible at %s", path)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 0 {
		t.Fatalf("temp litter after ENOSPC: %v", entries)
	}
}

// TestChaosSweepAtomicTemps seeds the exact debris a kill between
// create and rename leaves and proves the startup sweep quarantines it
// without touching completed artifacts.
func TestChaosSweepAtomicTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "pairs.csv"+atomicTempMark+"123456")
	keepCSV := filepath.Join(dir, "pairs.csv")
	for _, p := range []string{orphan, keepCSV} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := SweepAtomicTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("swept %d orphans, want 1", removed)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan temp survived the sweep")
	}
	if _, err := os.Stat(keepCSV); err != nil {
		t.Fatal("sweep removed a completed artifact")
	}
}

// tornShape is one way a kill can tear the checkpoint file.
type tornShape struct {
	name string
	// mangle corrupts a complete checkpoint file's bytes.
	mangle func([]byte) []byte
	// resumable reports whether OpenCheckpoint(resume) must succeed
	// (dropping the torn tail) or fail with a typed refusal.
	resumable bool
	// keptRecords is the record count a successful resume must load.
	keptRecords int
}

// TestChaosCheckpointTornShapes replays resume over every torn-write
// shape a kill can produce: a record torn mid-line, a header torn
// mid-line, and trailing garbage after a valid record. Resumable
// shapes must keep exactly the trusted prefix; an untrusted header
// must be refused loudly, never guessed around.
func TestChaosCheckpointTornShapes(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSpecs = 2

	// Build a complete, healthy two-record checkpoint to mangle.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, _, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), Config{
		Seed: cfg.Seed, MaxInputs: cfg.MaxInputs, MaxSpecs: cfg.MaxSpecs,
		Flows: cfg.Flows, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Specs) != 2 {
		t.Fatalf("reference run kept %d specs", len(res.Specs))
	}
	healthy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(healthy, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("checkpoint has %d lines, want header + 2 records", len(lines))
	}

	shapes := []tornShape{
		{
			name: "mid-record",
			// Kill landed halfway through the final record's line.
			mangle:    func(b []byte) []byte { return b[:len(b)-len(lines[2])/2] },
			resumable: true, keptRecords: 1,
		},
		{
			name: "mid-header",
			// Kill landed halfway through the header itself: nothing in
			// the file can be trusted.
			mangle:    func(b []byte) []byte { return b[:len(lines[0])/2] },
			resumable: false,
		},
		{
			name: "trailing-garbage",
			// fsync reordering or a torn sector appended junk after the
			// last complete record.
			mangle:    func(b []byte) []byte { return append(append([]byte{}, b...), []byte("{\"spec\":")...) },
			resumable: true, keptRecords: 2,
		},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			torn := filepath.Join(t.TempDir(), "torn.ckpt")
			mangled := sh.mangle(append([]byte{}, healthy...))
			if err := os.WriteFile(torn, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			ckpt, records, err := OpenCheckpoint(torn, cfg, true)
			if !sh.resumable {
				if err == nil {
					_ = ckpt.Close()
					t.Fatal("resume accepted an untrusted header")
				}
				if !strings.Contains(err.Error(), "checkpoint") {
					t.Fatalf("refusal is not a typed checkpoint error: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != sh.keptRecords {
				t.Fatalf("resume kept %d records, want %d", len(records), sh.keptRecords)
			}
			if err := ckpt.Close(); err != nil {
				t.Fatal(err)
			}
			// The truncated file is exactly the trusted prefix of the
			// healthy file — byte-identical, no invented bytes.
			got, err := os.ReadFile(torn)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := 0
			for _, l := range lines[:1+sh.keptRecords] {
				wantLen += len(l)
			}
			if !bytes.Equal(got, healthy[:wantLen]) {
				t.Fatal("resumed file is not the trusted prefix of the healthy file")
			}
		})
	}
}

// TestChaosCheckpointKillDuringAppend injects a torn write into the
// checkpoint appender — the state an actual kill leaves — then
// abandons the file exactly as a dead process would (no flush, no
// clean close) and resumes. The resumed run must be byte-identical to
// an uninterrupted one.
func TestChaosCheckpointKillDuringAppend(t *testing.T) {
	cfg := quickConfig()

	ref, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := WriteCSV(&refCSV, ref); err != nil {
		t.Fatal(err)
	}

	// Flushes to the file: header is write 1, each record one more.
	// Tear the third write (the second record) after 9 bytes.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	armChaos(t, PointCheckpointWrite, faultinject.OnCall(3),
		faultinject.Fault{Mode: faultinject.ModeTornWrite, KeepBytes: 9})

	ckpt, _, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	first := cfg
	first.Checkpoint = ckpt
	if _, err := RunContext(context.Background(), first); err == nil {
		t.Fatal("torn append did not abort the run")
	} else if !errors.Is(err, faultinject.Err) {
		t.Fatalf("torn append surfaced as %v, want wrapped faultinject.Err", err)
	}
	// Die like a kill: drop the Checkpointer on the floor — its buffer
	// is never flushed, only the torn bytes are on disk.
	if err := ckpt.f.Close(); err != nil {
		t.Fatal(err)
	}
	faultinject.Disable()
	faultinject.Reset()

	ckpt2, records, err := OpenCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("resume loaded %d records, want 1 (the complete one)", len(records))
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

	var gotCSV bytes.Buffer
	if err := WriteCSV(&gotCSV, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Fatal("CSV differs after torn-append resume")
	}
	if got, want := resumed.TableI(), ref.TableI(); got != want {
		t.Fatalf("Table I differs after torn-append resume:\n%s\nvs\n%s", got, want)
	}
	// And the repaired checkpoint replays in full.
	all, _, err := LoadCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ref.Specs) {
		t.Fatalf("final checkpoint holds %d records, want %d", len(all), len(ref.Specs))
	}
}

// TestChaosCheckpointFsyncFailure: an fsync error on append is a hard,
// typed failure — the run stops instead of continuing on a checkpoint
// that silently is not durable.
func TestChaosCheckpointFsyncFailure(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSpecs = 2
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, _, err := OpenCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ckpt.Close() }()
	armChaos(t, PointCheckpointSync, faultinject.Always(), faultinject.Fault{Mode: faultinject.ModeFsync})

	first := cfg
	first.Checkpoint = ckpt
	_, err = RunContext(context.Background(), first)
	if err == nil {
		t.Fatal("fsync failure did not abort the run")
	}
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, faultinject.Err) {
		t.Fatalf("fsync failure surfaced as %v, want wrapped EIO", err)
	}
}
