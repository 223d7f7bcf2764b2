package service

import (
	"strings"
	"time"

	"repro/internal/telemetry"
)

// defaultSLOTarget is the per-request latency objective when
// Config.SLOTarget is zero: requests slower than this burn the
// endpoint's slo_breaches counter.
const defaultSLOTarget = 500 * time.Millisecond

// redEndpoint derives one route's RED (Rate, Errors, Duration) families
// plus an SLO burn counter from the same request spans the trace layer
// records. The names are built once per route of the fixed route table,
// so the per-endpoint metric family cardinality is bounded by the route
// count — never by traffic — and the hot path passes only stored
// strings to telemetry (the metricname lint treats field reads as
// pass-through plumbing from these construction sites).
type redEndpoint struct {
	path string // route pattern, e.g. "/v1/metrics" — the span's endpoint attribute
	slo  time.Duration

	requests    string // service/red/<key>/requests
	errs        string // service/red/<key>/errors
	seconds     string // service/red/<key>/seconds (histogram)
	sloBreaches string // service/red/<key>/slo_breaches
}

// newRedEndpoint precomputes the metric names of a route pattern of
// the form "METHOD /path/{wildcards}".
func newRedEndpoint(pattern string, slo time.Duration) *redEndpoint {
	key := redKey(pattern)
	_, path, _ := strings.Cut(pattern, " ")
	return &redEndpoint{
		path:        path,
		slo:         slo,
		requests:    "service/red/" + key + "/requests",
		errs:        "service/red/" + key + "/errors",
		seconds:     "service/red/" + key + "/seconds",
		sloBreaches: "service/red/" + key + "/slo_breaches",
	}
}

// redKey flattens a route pattern into one snake_case metric segment:
// "GET /v1/aigs/{fp}" → "get_v1_aigs_fp".
func redKey(pattern string) string {
	var b strings.Builder
	lastUnderscore := true // suppress a leading underscore
	for _, r := range pattern {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// record folds one finished request into the endpoint's RED families:
// rate (requests), errors (5xx), duration (seconds histogram), and the
// latency-objective burn counter.
func (ep *redEndpoint) record(status int, d time.Duration) {
	telemetry.Add(ep.requests, 1)
	if status >= 500 {
		telemetry.Add(ep.errs, 1)
	}
	telemetry.Observe(ep.seconds, d.Seconds())
	if d > ep.slo {
		telemetry.Add(ep.sloBreaches, 1)
	}
}
