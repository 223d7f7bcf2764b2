package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, "new contents")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new contents" {
		t.Errorf("got %q, want %q", got, "new contents")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

// TestWriteFileAtomicMode: the new file keeps the mode of the file it
// replaces, and a file with no predecessor is 0644 — not the 0600 that
// os.CreateTemp gives the temp file the rename moves into place.
func TestWriteFileAtomicMode(t *testing.T) {
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, "rows")
		return err
	}
	dir := t.TempDir()
	kept := filepath.Join(dir, "kept.csv")
	if err := os.WriteFile(kept, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(kept, 0o640); err != nil { // past any umask
		t.Fatal(err)
	}
	for path, want := range map[string]os.FileMode{kept: 0o640, filepath.Join(dir, "new.csv"): 0o644} {
		if err := WriteFileAtomic(path, write); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != want {
			t.Errorf("%s: mode %v, want %v", filepath.Base(path), got, want)
		}
	}
}

func TestWriteFileAtomicKeepsOldOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, "partial garbage"); werr != nil {
			return werr
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped %v", err, sentinel)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "old" {
		t.Errorf("failed write clobbered target: %q", got)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("temp files left behind after failure: %v", leftovers)
	}
}

// TestWriteFileAtomicCSV exercises the production composition: the CSV
// emitter routed through the atomic replace.
func TestWriteFileAtomicCSV(t *testing.T) {
	res := &Result{
		MetricNames: []string{"RGC"},
		FlowNames:   []string{"orchestrate"},
		Pairs: []PairSample{{
			Spec: "s", RecipeA: "a", RecipeB: "b",
			Metrics: map[string]float64{"RGC": 0.5},
			ROD:     map[string]float64{"orchestrate": 0.25},
		}},
	}
	path := filepath.Join(t.TempDir(), "pairs.csv")
	if err := WriteFileAtomic(path, func(w io.Writer) error { return WriteCSV(w, res) }); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "s,a,b") {
		t.Errorf("CSV body missing pair row:\n%s", got)
	}
}
