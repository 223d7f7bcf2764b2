package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestSpanSecondsSelectors(t *testing.T) {
	r := NewRegistry()
	r.RecordSpan("synth/sop", 100*time.Millisecond)
	r.RecordSpan("synth/bdd", 200*time.Millisecond)
	r.RecordSpan("synth/bdd/sift", 5*time.Second) // nested: excluded from prefix sums
	r.RecordSpan("profile/total", 400*time.Millisecond)

	if n, s := r.SpanSeconds("synth/"); n != 2 || !near(s, 0.3) {
		t.Fatalf("prefix sum = (%d, %f), want (2, 0.3)", n, s)
	}
	if n, s := r.SpanSeconds("profile/total"); n != 1 || !near(s, 0.4) {
		t.Fatalf("exact sum = (%d, %f), want (1, 0.4)", n, s)
	}
	if n, _ := r.SpanSeconds("nothere/"); n != 0 {
		t.Fatalf("missing prefix count = %d", n)
	}
}

func TestSummaryTable(t *testing.T) {
	r := NewRegistry()
	r.RecordSpan("slow", 2*time.Second)
	r.RecordSpan("slow", 4*time.Second)
	r.RecordSpan("fast", 3*time.Millisecond)
	out := r.SummaryTable()
	slow := strings.Index(out, "slow")
	fast := strings.Index(out, "fast")
	if slow < 0 || fast < 0 || slow > fast {
		t.Fatalf("expected slow before fast in:\n%s", out)
	}
	if !strings.Contains(out, "6.00s") || !strings.Contains(out, "3.00s") {
		t.Fatalf("missing totals/means in:\n%s", out)
	}
	if !strings.Contains(out, "3.00ms") {
		t.Fatalf("missing sub-second formatting in:\n%s", out)
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
