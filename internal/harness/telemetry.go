package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Stage is one non-overlapping busy-time accounting bucket of the
// experiment pipeline. Selector follows telemetry.Registry.SpanSeconds
// semantics: a trailing "/" sums the top-level spans under that prefix,
// anything else reads one exact span name. The four stages are chosen so
// their totals partition a harness run's busy time without double
// counting — spans nested inside a stage (the opt/<pass> spans inside
// each flow) are deliberately excluded.
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

// StageSummary renders the per-stage rollup against the run's elapsed
// time, followed by the full span table. Stage seconds are busy time:
// the variants of a spec build on several workers at once, so the busy
// total can exceed the elapsed time. Each stage is therefore shown as a
// share of the busy total, and the footer sets the busy total against
// the elapsed time, their ratio being the average number of variants in
// flight. The residual outside the stages is bookkeeping: workload
// generation, pairing, correlation.
func StageSummary(reg *telemetry.Registry, elapsed time.Duration) string {
	if reg == nil {
		return ""
	}
	stages := Stages()
	counts := make([]int64, len(stages))
	secs := make([]float64, len(stages))
	busy := 0.0
	for i, st := range stages {
		counts[i], secs[i] = StageSeconds(reg, st)
		busy += secs[i]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %9s\n", "stage", "count", "busy", "% of busy")
	for i, st := range stages {
		pct := 0.0
		if busy > 0 {
			pct = 100 * secs[i] / busy
		}
		fmt.Fprintf(&b, "%-14s %8d %9.2fs %8.1f%%\n", st.Label, counts[i], secs[i], pct)
	}
	if elapsed > 0 {
		fmt.Fprintf(&b, "stage total: %.2fs busy in %.2fs elapsed (%.2f variants in flight on average)\n",
			busy, elapsed.Seconds(), busy/elapsed.Seconds())
	}
	b.WriteString("\n")
	b.WriteString(reg.SummaryTable())
	return b.String()
}
