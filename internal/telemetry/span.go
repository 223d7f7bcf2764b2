package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// RecordSpan records a duration in seconds into the log-bucketed
// histogram of a span name, so each span name carries count,
// cumulative, min, and max duration. Spans opened with trace.Start
// record here when they end; callers (and tests) that measure
// durations themselves record directly.
func (r *Registry) RecordSpan(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.spanHistogram(name).Observe(d.Seconds())
}

func (r *Registry) spanHistogram(name string) *Histogram {
	r.mu.RLock()
	h := r.spans[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.spans[name]; h == nil {
		h = newHistogram()
		r.spans[name] = h
	}
	return h
}

// SpanStats returns the duration distribution recorded under a span
// name (zero-count snapshot if the name is unknown).
func (r *Registry) SpanStats(name string) HistogramSnapshot {
	if r == nil {
		return (*Histogram)(nil).Snapshot()
	}
	r.mu.RLock()
	h := r.spans[name]
	r.mu.RUnlock()
	return h.Snapshot()
}

// SpanSeconds aggregates spans by selector: a selector ending in "/"
// sums every span with that prefix; otherwise it reads the exact name.
// It returns the total recorded count and cumulative seconds.
func (r *Registry) SpanSeconds(selector string) (count int64, seconds float64) {
	if r == nil {
		return 0, 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Sum in sorted-name order: float addition is not associative, so
	// map-order accumulation would perturb the low bits of the stage
	// totals from run to run.
	for _, name := range names(r.spans) {
		h := r.spans[name]
		if strings.HasSuffix(selector, "/") {
			if !strings.HasPrefix(name, selector) {
				continue
			}
			// Exclude nested grandchildren so "flow/" counts flow/dc2 but
			// not flow/dc2/something: prefix sums stay top-level.
			if strings.Contains(name[len(selector):], "/") {
				continue
			}
		} else if name != selector {
			continue
		}
		s := h.Snapshot()
		count += s.Count
		seconds += s.Sum
	}
	return count, seconds
}

// SummaryTable renders all recorded spans sorted by cumulative time
// (descending): count, total, mean, min, and max per span name.
func (r *Registry) SummaryTable() string {
	if r == nil {
		return ""
	}
	type row struct {
		name string
		s    HistogramSnapshot
	}
	r.mu.RLock()
	rows := make([]row, 0, len(r.spans))
	for name, h := range r.spans {
		rows = append(rows, row{name, h.Snapshot()})
	}
	r.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].s.Sum != rows[j].s.Sum {
			return rows[i].s.Sum > rows[j].s.Sum
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %8s %10s %10s %10s %10s\n", "span", "count", "total", "mean", "min", "max")
	for _, rw := range rows {
		if rw.s.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-36s %8d %10s %10s %10s %10s\n",
			rw.name, rw.s.Count,
			fmtSeconds(rw.s.Sum), fmtSeconds(rw.s.Mean()),
			fmtSeconds(rw.s.Min), fmtSeconds(rw.s.Max))
	}
	return b.String()
}

// fmtSeconds renders a duration in seconds with an adaptive unit.
func fmtSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2fµs", s*1e6)
	case s > 0:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
	return "0"
}
