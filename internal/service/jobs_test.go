package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postJob submits a job request under an Idempotency-Key ("" sends
// none) and returns the status and the decoded body.
func postJob(t *testing.T, d *testDaemon, path, body, key string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("POST", d.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: decoding %q: %v", path, raw, err)
	}
	return resp.StatusCode, out
}

// TestIdempotencyKeyReuse: an Idempotency-Key names one request. A
// replay of that request (whitespace and field order aside) lands on
// the original job; the key reused for a different kind or a different
// request is refused with 422 and schedules nothing, so no caller ever
// polls another request's job.
func TestIdempotencyKeyReuse(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	a := d.submit(t, testAIG(t, 61)).Fingerprint
	b := d.submit(t, testAIG(t, 62)).Fingerprint

	code, first := postJob(t, d, "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, a), "k1")
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d (%v)", code, first)
	}
	id := first["id"].(string)
	code, replay := postJob(t, d, "/v1/optimize", fmt.Sprintf(`{ "flow": "dc2", "aig": %q }`, a), "k1")
	if code != http.StatusAccepted || replay["id"] != id {
		t.Fatalf("identical replay: status %d id %v, want 202 %s", code, replay["id"], id)
	}
	for _, reuse := range []struct{ name, path, body string }{
		{"other kind", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["dc2"]}`, a, b)},
		{"other AIG", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, b)},
		{"other flow", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"orchestrate"}`, a)},
		{"other seed", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2","seed":3}`, a)},
	} {
		code, out := postJob(t, d, reuse.path, reuse.body, "k1")
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d (%v), want 422", reuse.name, code, out)
			continue
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, `"k1"`) {
			t.Errorf("%s: error %q does not name the key", reuse.name, msg)
		}
	}
	if v := d.waitJob(t, id); v.Kind != "optimize" || v.Status != JobDone {
		t.Fatalf("job %s = %+v, want a finished optimize job", id, v)
	}
	if got := d.counter("service/jobs_submitted"); got != 1 {
		t.Errorf("jobs_submitted = %d, want 1: a refused reuse scheduled a job", got)
	}
	waitFor(t, func() bool { return d.svc.jobsAdm.pending.Load() == 0 })
}

// TestRefusedJobsReleaseAdmission: with a one-slot job budget, every
// refused /v1/optimize and /v1/report request must hand its admission
// slot back — a leaked slot would shed every later job with 429.
func TestRefusedJobsReleaseAdmission(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2, PendingJobs: 1})
	a := d.submit(t, testAIG(t, 63)).Fingerprint
	b := d.submit(t, testAIG(t, 64)).Fingerprint
	w := d.submit(t, wideAIG(t)).Fingerprint

	code, done := postJob(t, d, "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, a), "k1")
	if code != http.StatusAccepted {
		t.Fatalf("keyed job: status %d (%v)", code, done)
	}
	d.waitJob(t, done["id"].(string))
	waitFor(t, func() bool { return d.svc.jobsAdm.pending.Load() == 0 })

	for _, rf := range []struct {
		name, path, body, key string
		want                  int
	}{
		{"optimize bad JSON", "/v1/optimize", `{"aig":`, "", http.StatusBadRequest},
		{"optimize unknown field", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"nope":1}`, a), "", http.StatusBadRequest},
		{"optimize unknown flow", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"nope"}`, a), "", http.StatusBadRequest},
		{"optimize unknown fp", "/v1/optimize", `{"aig":"eeee"}`, "", http.StatusNotFound},
		{"optimize too many inputs", "/v1/optimize", fmt.Sprintf(`{"aig":%q}`, w), "", http.StatusBadRequest},
		{"optimize key reuse", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"deepsyn"}`, a), "k1", http.StatusUnprocessableEntity},
		{"report bad JSON", "/v1/report", `{"a":`, "", http.StatusBadRequest},
		{"report unknown field", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"nope":1}`, a, b), "", http.StatusBadRequest},
		{"report unknown flow", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["nope"]}`, a, b), "", http.StatusBadRequest},
		{"report unknown metric", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["nope"]}`, a, b), "", http.StatusBadRequest},
		{"report unknown fp", "/v1/report", fmt.Sprintf(`{"a":"eeee","b":%q}`, b), "", http.StatusNotFound},
		{"report too many inputs", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q}`, a, w), "", http.StatusBadRequest},
		{"report key reuse", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), "k1", http.StatusUnprocessableEntity},
	} {
		if code, out := postJob(t, d, rf.path, rf.body, rf.key); code != rf.want {
			t.Errorf("%s: status %d (%v), want %d", rf.name, code, out, rf.want)
		}
		if p := d.svc.jobsAdm.pending.Load(); p != 0 {
			t.Fatalf("%s leaked its admission slot: pending = %d", rf.name, p)
		}
	}

	for _, job := range []struct{ path, body string }{
		{"/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, b)},
		{"/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["dc2"],"metrics":["VEO"]}`, a, b)},
	} {
		code, acc := postJob(t, d, job.path, job.body, "")
		if code != http.StatusAccepted {
			t.Fatalf("%s after refusals: status %d (%v), want 202", job.path, code, acc)
		}
		if v := d.waitJob(t, acc["id"].(string)); v.Status != JobDone {
			t.Fatalf("%s job = %+v, want done", job.path, v)
		}
		waitFor(t, func() bool { return d.svc.jobsAdm.pending.Load() == 0 })
	}
}
