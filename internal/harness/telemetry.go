package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Stage is one non-overlapping wall-clock accounting bucket of the
// experiment pipeline. Selector follows telemetry.Registry.SpanSeconds
// semantics: a trailing "/" sums the top-level spans under that prefix,
// anything else reads one exact span name. The four stages are chosen so
// their totals partition a harness run's time without double counting —
// spans nested inside a stage (the opt/<pass> spans inside each flow)
// are deliberately excluded.
type Stage struct {
	Label    string
	Selector string
}

// Stages returns the pipeline's accounting buckets in execution order.
func Stages() []Stage {
	return []Stage{
		{"synthesis", "synth/"},
		{"profiling", "profile/total"},
		{"optimization", "flow/"},
		{"metrics", "metric/"},
	}
}

// StageSeconds reads one stage's cumulative (count, seconds) from reg.
func StageSeconds(reg *telemetry.Registry, s Stage) (int64, float64) {
	return reg.SpanSeconds(s.Selector)
}

// StageSummary renders the per-stage wall-clock rollup against the
// run's elapsed time, followed by the full span table. The stage totals
// should account for nearly all of a harness run (the residual is
// bookkeeping: workload generation, pairing, correlation).
func StageSummary(reg *telemetry.Registry, elapsed time.Duration) string {
	if reg == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %8s\n", "stage", "count", "total", "% of run")
	covered := 0.0
	for _, st := range Stages() {
		n, sec := StageSeconds(reg, st)
		covered += sec
		pct := 0.0
		if elapsed > 0 {
			pct = 100 * sec / elapsed.Seconds()
		}
		fmt.Fprintf(&b, "%-14s %8d %9.2fs %7.1f%%\n", st.Label, n, sec, pct)
	}
	if elapsed > 0 {
		fmt.Fprintf(&b, "stage total: %.2fs of %.2fs elapsed (%.1f%%)\n",
			covered, elapsed.Seconds(), 100*covered/elapsed.Seconds())
	}
	b.WriteString("\n")
	b.WriteString(reg.SummaryTable())
	return b.String()
}
