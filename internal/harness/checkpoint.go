package harness

// Checkpointing makes the long-running batch experiment killable and
// resumable. The checkpoint is a JSONL file: a header line binding the
// file to a config fingerprint (seed, suite cut, recipes, flows,
// profile options, flow budget), then one SpecRecord per completed
// spec. Because every per-spec result is deterministic given the
// config, replaying the record prefix and recomputing the rest yields
// output byte-identical to an uninterrupted run — the property the
// checkpoint test suite asserts.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/faultinject"
)

// Fault-injection points on the checkpoint append path. A fault at
// either one aborts the run with the record possibly torn on disk —
// exactly the state a kill or power cut leaves — and the chaos suite
// asserts that resume from that state stays byte-identical to an
// uninterrupted run (the torn tail is dropped and recomputed).
const (
	PointCheckpointWrite = "harness/checkpoint_write"
	PointCheckpointSync  = "harness/checkpoint_sync"
)

// SpecRecord is one checkpointed spec: everything RunContext derives from a
// completed spec (the spec run, its pair samples, and any quarantined
// variants), so a resumed run adopts it without recomputation. Variant
// profiles are not persisted — the pairwise metrics that need them are
// already in Pairs — so resumed SpecRuns carry nil Profiles.
type SpecRecord struct {
	Spec     string       `json:"spec"`
	Run      SpecRun      `json:"run"`
	Pairs    []PairSample `json:"pairs,omitempty"`
	Failures []Failure    `json:"failures,omitempty"`
}

// checkpointFormat names the checkpoint layout; bump on breaking
// changes so stale files are rejected instead of misread.
const checkpointFormat = "aig-repro-checkpoint/v1"

type checkpointHeader struct {
	Format      string `json:"format"`
	Fingerprint string `json:"fingerprint"`
	Seed        int64  `json:"seed"`
}

// fingerprint digests every config field that influences experiment
// results. A checkpoint written under one fingerprint must never be
// replayed into a run with another: silently mixing configurations
// would corrupt the correlation analysis.
func (c Config) fingerprint() (string, error) {
	recipes, err := c.recipeSet()
	if err != nil {
		return "", err
	}
	flows, err := c.flowSet()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d;maxInputs=%d;maxSpecs=%d;", c.Seed, c.maxInputs(), c.MaxSpecs)
	for _, r := range recipes {
		fmt.Fprintf(h, "recipe=%s;", r.Name)
	}
	for _, f := range flows {
		fmt.Fprintf(h, "flow=%s;", f.Name)
	}
	// Profiles used to be configurable; the constant is the zero value
	// of those knobs, so checkpoints written before they were removed
	// still resume.
	h.Write([]byte("profile=0/0/false/0;"))
	fmt.Fprintf(h, "flowTimeout=%s", c.FlowTimeout)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Checkpointer appends one record per completed spec to a JSONL file,
// flushing after every record so a killed run loses at most the spec
// in flight.
type Checkpointer struct {
	f *os.File
	w *bufio.Writer
}

// newCheckpointer wraps f's write path with the checkpoint fault
// point; this is the single construction site, so an armed schedule
// covers fresh and resumed checkpoints alike.
func newCheckpointer(f *os.File) *Checkpointer {
	return &Checkpointer{f: f, w: bufio.NewWriter(faultinject.WrapWriter(PointCheckpointWrite, f))}
}

// OpenCheckpoint prepares path for checkpointing under cfg. With resume
// false (or no existing file to resume) it truncates the file and
// writes a fresh header. With resume true it validates the header
// fingerprint against cfg, truncates any torn final line left by a
// killed run, returns every complete SpecRecord, and reopens the file
// for appending.
func OpenCheckpoint(path string, cfg Config, resume bool) (*Checkpointer, []SpecRecord, error) {
	if resume {
		records, offset, err := LoadCheckpoint(path, cfg)
		switch {
		case err == nil:
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, nil, err
			}
			if err := f.Truncate(offset); err != nil {
				_ = f.Close()
				return nil, nil, err
			}
			if _, err := f.Seek(offset, io.SeekStart); err != nil {
				_ = f.Close()
				return nil, nil, err
			}
			return newCheckpointer(f), records, nil
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume: start a fresh checkpoint below.
		default:
			return nil, nil, err
		}
	}
	fp, err := cfg.fingerprint()
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	c := newCheckpointer(f)
	if err := c.append(checkpointHeader{Format: checkpointFormat, Fingerprint: fp, Seed: cfg.Seed}); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("harness: writing checkpoint header: %w", err)
	}
	return c, nil, nil
}

// LoadCheckpoint reads the checkpoint at path, validates that it was
// written by a run with cfg's fingerprint, and returns the complete
// records in file order plus the byte offset just past the last
// complete record (a torn final line from a killed run is dropped).
func LoadCheckpoint(path string, cfg Config) ([]SpecRecord, int64, error) {
	fp, err := cfg.fingerprint()
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	headerLine, err := br.ReadString('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("harness: checkpoint %s: reading header: %w", path, err)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal([]byte(headerLine), &hdr); err != nil || hdr.Format != checkpointFormat {
		return nil, 0, fmt.Errorf("harness: %s is not a %s file", path, checkpointFormat)
	}
	if hdr.Fingerprint != fp {
		return nil, 0, fmt.Errorf("harness: checkpoint %s was written under a different configuration (fingerprint %s, this run %s); rerun without -resume or restore the original flags", path, hdr.Fingerprint, fp)
	}
	offset := int64(len(headerLine))
	var records []SpecRecord
	for {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			break
		}
		var rec SpecRecord
		// Stop at the first torn (no trailing newline) or foreign line:
		// everything before it is a trusted prefix, everything after is
		// recomputed.
		if err != nil || json.Unmarshal([]byte(line), &rec) != nil || rec.Spec == "" {
			break
		}
		records = append(records, rec)
		offset += int64(len(line))
	}
	return records, offset, nil
}

// Append persists one completed spec. The write is flushed to the OS
// and fsynced to stable storage before returning, so neither a kill
// nor a machine crash can lose it.
func (c *Checkpointer) Append(rec SpecRecord) error {
	if err := c.append(rec); err != nil {
		return fmt.Errorf("harness: appending checkpoint record for %s: %w", rec.Spec, err)
	}
	if err := faultinject.Hit(PointCheckpointSync); err != nil {
		return fmt.Errorf("harness: syncing checkpoint record for %s: %w", rec.Spec, err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("harness: syncing checkpoint record for %s: %w", rec.Spec, err)
	}
	return nil
}

func (c *Checkpointer) append(doc any) error {
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}

// Close flushes and closes the checkpoint file. Safe on nil.
func (c *Checkpointer) Close() error {
	if c == nil {
		return nil
	}
	if err := c.w.Flush(); err != nil {
		_ = c.f.Close()
		return err
	}
	return c.f.Close()
}
