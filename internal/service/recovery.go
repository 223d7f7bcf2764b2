package service

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// RecoverSpillDir is the daemon's startup crash-recovery sweep over
// its spill directory. A previous life that died uncleanly can leave
// two kinds of artifact behind:
//
//   - atomicfile temp files ("*.atomictmp-*"): a crash landed between
//     create and rename, so the file is a possibly-torn orphan no
//     process will ever complete — quarantined by harness.SweepAtomicTempsList;
//   - stale spill files ("job-*.json"): their jobs lived only in the
//     dead process's memory, so no poll can ever reference them again —
//     removed so the directory cannot grow without bound across
//     restarts.
//
// Both sweeps are counted (service/orphan_temps_swept,
// service/orphan_spills_swept), and when an event logger is supplied
// the sweep emits one byte-stable "spill_recovery" JSONL line naming
// every quarantined temp and deleted spill (sorted), so operators can
// audit exactly what post-crash state the daemon cleaned up instead of
// reconstructing it from counters. The directory is created if missing
// — a daemon pointed at a fresh -spill-dir must not fail its first
// spill. Sweep errors degrade the sweep, never the daemon: the first
// is returned for logging and counted.
func RecoverSpillDir(spillDir string, events *telemetry.EventLogger) (temps, spills int, err error) {
	if mkErr := os.MkdirAll(spillDir, 0o755); mkErr != nil {
		telemetry.Add("service/recovery_errors", 1)
		return 0, 0, mkErr
	}
	errCount := 0
	tempNames, err := harness.SweepAtomicTempsList(spillDir)
	if err != nil {
		errCount++
	}
	var spillNames []string
	entries, rerr := os.ReadDir(spillDir)
	if rerr != nil {
		telemetry.Add("service/recovery_errors", 1)
		if err == nil {
			err = rerr
		}
		logRecovery(events, spillDir, tempNames, nil, errCount+1)
		return len(tempNames), 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		if rmErr := os.Remove(filepath.Join(spillDir, name)); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			telemetry.Add("service/recovery_errors", 1)
			errCount++
			if err == nil {
				err = rmErr
			}
			continue
		}
		spillNames = append(spillNames, name)
	}
	telemetry.Add("service/orphan_spills_swept", int64(len(spillNames)))
	logRecovery(events, spillDir, tempNames, spillNames, errCount)
	return len(tempNames), len(spillNames), err
}

// logRecovery emits the post-crash audit line. Names are sorted so the
// same debris always serializes to the same bytes (the EventLogger
// already orders the keys); a clean startup still logs the line —
// "nothing was recovered" is itself an auditable fact.
func logRecovery(events *telemetry.EventLogger, dir string, temps, spills []string, errCount int) {
	if events == nil {
		return
	}
	sort.Strings(temps)
	sort.Strings(spills)
	if temps == nil {
		temps = []string{}
	}
	if spills == nil {
		spills = []string{}
	}
	events.Log("spill_recovery", map[string]any{
		"dir":             dir,
		"recovered_temps": temps,
		"deleted_spills":  spills,
		"errors":          errCount,
	})
}
