package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Fault-injection points on the atomic-replace path, one per step that
// can fail independently (see the chaos suite in chaos_test.go for the
// invariant each guards: whatever fires, the final path only ever
// holds the old complete file or the new complete file).
const (
	PointAtomicCreate = "harness/atomic_create"
	PointAtomicWrite  = "harness/atomic_write"
	PointAtomicSync   = "harness/atomic_sync"
	PointAtomicRename = "harness/atomic_rename"
)

// atomicTempMark tags WriteFileAtomic's temp files so a startup sweep
// (SweepAtomicTempsList) can recognize — and quarantine — orphans left by
// a crash between create and rename. The mark is unusual enough that
// no results artifact collides with it.
const atomicTempMark = ".atomictmp-"

// WriteFileAtomic replaces path with content produced by write, with
// crash-safety on every step: the content goes to a temp file in the
// same directory, is fsynced to stable storage, and only then renamed
// over path; finally the directory itself is fsynced so the rename is
// durable. A crash or full disk at any point leaves either the old
// complete file or the new complete file — never a truncated hybrid.
// Results files (CSV exports, the service's spilled job results) are
// replaced through this helper so a reader can never observe a torn
// file. The new file keeps the permissions of the file it replaces, or
// gets 0644 when there is none.
func WriteFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	mode := os.FileMode(0o644)
	if fi, serr := os.Stat(path); serr == nil {
		mode = fi.Mode().Perm()
	}
	if err := faultinject.Hit(PointAtomicCreate); err != nil {
		return fmt.Errorf("creating temp for %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+atomicTempMark+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	if err := write(faultinject.WrapWriter(PointAtomicWrite, tmp)); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := faultinject.Hit(PointAtomicSync); err != nil {
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	// os.CreateTemp makes the file 0600, and the rename would keep it.
	if err := tmp.Chmod(mode); err != nil {
		return fmt.Errorf("setting the mode of %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	if err := faultinject.Hit(PointAtomicRename); err != nil {
		return fmt.Errorf("renaming over %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Durability of the rename itself: fsync the directory. Some
	// platforms cannot fsync directories; the rename already happened,
	// so a failure here only weakens crash durability, not atomicity.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// SweepAtomicTempsList quarantines orphaned WriteFileAtomic temp files
// in dir: a crash (or kill) between create and rename leaves a
// "*.atomictmp-*" file that no process will ever rename, so startup
// recovery removes it. Completed files never carry the mark, so the
// sweep cannot touch real artifacts. It reports the removed orphans by
// name (sorted — os.ReadDir order), so callers can put the exact
// post-crash debris into an operator-auditable log; removal failures
// are counted and the first is returned after the sweep finishes the
// remaining entries.
func SweepAtomicTempsList(dir string) (removed []string, err error) {
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		return nil, rerr
	}
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), atomicTempMark) {
			continue
		}
		if rmErr := os.Remove(filepath.Join(dir, e.Name())); rmErr != nil {
			telemetry.Add("harness/orphan_sweep_errors", 1)
			if err == nil {
				err = rmErr
			}
			continue
		}
		removed = append(removed, e.Name())
	}
	telemetry.Add("harness/orphan_temps_swept", int64(len(removed)))
	return removed, err
}
