package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// TestTelemetryNeutral asserts the tentpole invariant: with a fixed
// seed, a fully instrumented run (registry enabled, metrics server
// irrelevant, event log attached) and a traced run (collector
// installed too) produce byte-identical experiment results to an
// uninstrumented run. Telemetry must observe, never perturb.
func TestTelemetryNeutral(t *testing.T) {
	telemetry.Disable()
	plain, err := RunContext(context.Background(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}

	telemetry.Enable()
	defer telemetry.Disable()
	var events bytes.Buffer
	cfg := quickConfig()
	cfg.Events = telemetry.NewEventLogger(&events)
	instrumented, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Specs, instrumented.Specs) {
		t.Error("instrumented run changed spec results")
	}
	if !reflect.DeepEqual(plain.Pairs, instrumented.Pairs) {
		t.Error("instrumented run changed pair samples")
	}
	if events.Len() == 0 {
		t.Error("instrumented run logged no events")
	}

	st := trace.NewStore(trace.StoreConfig{})
	trace.SetCollector(st)
	defer trace.SetCollector(nil)
	traced, err := RunContext(context.Background(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Specs, traced.Specs) {
		t.Error("traced run changed spec results")
	}
	if !reflect.DeepEqual(plain.Pairs, traced.Pairs) {
		t.Error("traced run changed pair samples")
	}
	// One trace per variant plus one per spec's pair loop: no metric
	// or stage span may root a trace of its own.
	sums := st.List(trace.Filter{})
	if len(sums) == 0 {
		t.Error("traced run stored no traces")
	}
	for _, s := range sums {
		if s.Root != "harness/variant" && s.Root != "harness/pairs" {
			t.Errorf("trace %s is rooted at %q", s.TraceID, s.Root)
		}
	}
}

// TestRunRecordsTelemetry checks that one harness run populates the
// counters and span families every downstream consumer (summary table,
// /metrics, bench reporting) relies on.
func TestRunRecordsTelemetry(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Enable()
	defer telemetry.Disable()

	start := time.Now()
	res, err := RunContext(context.Background(), quickConfig())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness/specs_done").Value(); got != int64(len(res.Specs)) {
		t.Errorf("specs_done = %d, want %d", got, len(res.Specs))
	}
	if got := reg.Counter("harness/pairs").Value(); got != int64(len(res.Pairs)) {
		t.Errorf("pairs = %d, want %d", got, len(res.Pairs))
	}
	wantRods := int64(len(res.Pairs) * len(res.FlowNames))
	if got := reg.Counter("harness/rods").Value(); got != wantRods {
		t.Errorf("rods = %d, want %d", got, wantRods)
	}
	// Every stage bucket must have recorded spans, and their sum must
	// be positive and bounded by the run's wall clock.
	total := 0.0
	for _, st := range Stages() {
		n, sec := StageSeconds(reg, st)
		if n == 0 {
			t.Errorf("stage %s recorded no spans", st.Label)
		}
		total += sec
	}
	if total <= 0 || total > elapsed.Seconds()*1.01 {
		t.Errorf("stage total %.3fs out of range (run %.3fs)", total, elapsed.Seconds())
	}
	// Without a collector the passes inside each flow still record
	// their registry-only spans.
	for _, pass := range []string{"opt/balance", "opt/rewrite", "opt/refactor", "opt/resub"} {
		if reg.SpanStats(pass).Count == 0 {
			t.Errorf("no %s spans recorded", pass)
		}
	}
	summary := StageSummary(reg, elapsed)
	for _, want := range []string{"synthesis", "profiling", "optimization", "metrics", "stage total:"} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q:\n%s", want, summary)
		}
	}
}

// TestProgressAndEventsAgree asserts the anti-divergence satellite: the
// human-readable progress line and the structured event stream are the
// same record, so a redirected results_progress.log can never disagree
// with the JSONL event log.
func TestProgressAndEventsAgree(t *testing.T) {
	var progress, events bytes.Buffer
	cfg := quickConfig()
	cfg.Progress = &progress
	cfg.Events = telemetry.NewEventLogger(&events)
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	progressLines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	var eventLines []string
	for _, raw := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(raw), &doc); err != nil {
			t.Fatalf("bad event line %q: %v", raw, err)
		}
		if doc["event"] == "spec_done" {
			eventLines = append(eventLines, doc["line"].(string))
		}
	}
	if !reflect.DeepEqual(progressLines, eventLines) {
		t.Errorf("progress and event lines diverge:\n%v\nvs\n%v", progressLines, eventLines)
	}
}

func TestUnknownRecipeAndFlowErrors(t *testing.T) {
	cfg := quickConfig()
	cfg.Recipes = []string{"sop", "nope"}
	if _, err := RunContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), `unknown recipe "nope"`) {
		t.Errorf("unknown recipe error = %v", err)
	}
	cfg = quickConfig()
	cfg.Flows = []string{"dc2", "warp"}
	if _, err := RunContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), `unknown flow "warp"`) {
		t.Errorf("unknown flow error = %v", err)
	}
}
