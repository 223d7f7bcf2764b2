package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/telemetry/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// surfaceGolden pins every status code, Content-Type, Retry-After and
// JSON body of the daemon's external API.
const surfaceGolden = "testdata/surface.golden"

// acceptedStatus matches the status field of a 202 job-accepted body:
// whether the pool picked the job up before the reply was written is a
// race, so the transcript records it as "*".
var acceptedStatus = regexp.MustCompile(`"status":"[a-z]+"`)

// transcript records one scripted HTTP session: for every exchange the
// status, Content-Type, Retry-After and body.
type transcript struct {
	t    *testing.T
	base string
	out  bytes.Buffer
}

// exchange sends one request and records the response under label; it
// returns the raw body.
func (tr *transcript) exchange(label, method, path, body string) []byte {
	tr.t.Helper()
	req, err := http.NewRequest(method, tr.base+path, strings.NewReader(body))
	if err != nil {
		tr.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tr.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tr.t.Fatal(err)
	}
	rec := raw
	if resp.StatusCode == http.StatusAccepted {
		rec = acceptedStatus.ReplaceAll(raw, []byte(`"status":"*"`))
	}
	fmt.Fprintf(&tr.out, "== %s: %s %s\nstatus: %d\ncontent-type: %s\nretry-after: %s\n%s",
		label, method, path, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), rec)
	return raw
}

// compare checks the transcript against a golden file (rewritten under
// -update), reporting the first differing line.
func (tr *transcript) compare(path string) {
	tr.t.Helper()
	got := tr.out.Bytes()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			tr.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		tr.t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			tr.t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
		}
	}
	tr.t.Fatalf("transcript has %d lines, %s has %d", len(gl), path, len(wl))
}

// TestHTTPSurfaceGolden runs a scripted session over every /v1 route —
// its success case and each refusal class: 400, 404, the 429 shed, and
// the 503 every route answers while draining — and requires the
// transcript to match the golden byte for byte.
func TestHTTPSurfaceGolden(t *testing.T) {
	trace.SetCollector(nil)
	d := newTestDaemon(t, Config{Workers: 2})
	tr := &transcript{t: t, base: d.ts.URL}
	fp := func(raw []byte) string {
		var v AIGView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		return v.Fingerprint
	}

	a := fp(tr.exchange("submit", "POST", "/v1/aigs", testAIG(t, 1)))
	tr.exchange("submit known", "POST", "/v1/aigs", testAIG(t, 1))
	b := fp(tr.exchange("submit", "POST", "/v1/aigs", testAIG(t, 2)))
	c := fp(tr.exchange("submit", "POST", "/v1/aigs", testAIG(t, 3)))
	w := fp(tr.exchange("submit wide", "POST", "/v1/aigs", wideAIG(t)))
	tr.exchange("submit bad AIGER", "POST", "/v1/aigs", "this is not aiger")
	tr.exchange("get", "GET", "/v1/aigs/"+a, "")
	tr.exchange("get unknown", "GET", "/v1/aigs/ffff", "")

	tr.exchange("metrics", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b))
	tr.exchange("metrics subset", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO","RGC"]}`, b, c))
	tr.exchange("metrics bad JSON", "POST", "/v1/metrics", `{"a":`)
	tr.exchange("metrics unknown field", "POST", "/v1/metrics", `{"aa":"x"}`)
	tr.exchange("metrics unknown metric", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["nope"]}`, a, b))
	tr.exchange("metrics unknown fp", "POST", "/v1/metrics", fmt.Sprintf(`{"a":"eeee","b":%q}`, b))

	tr.exchange("batch", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q,%q,%q],"metrics":["RGC","VEO"]}`, a, b, c))
	tr.exchange("batch too small", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q]}`, a))
	tr.exchange("batch over cap", "POST", "/v1/metrics/batch", `{"aigs":[`+strings.TrimSuffix(strings.Repeat(`"x",`, maxBatchAIGs+1), ",")+`]}`)
	tr.exchange("batch unknown metric", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q,%q],"metrics":["nope"]}`, a, b))
	tr.exchange("batch unknown fp", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q,"eeee"]}`, a))
	tr.exchange("batch bad JSON", "POST", "/v1/metrics/batch", `{"aigs":`)

	tr.exchange("neighbors", "POST", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"k":2,"metric":"RGC"}`, a))
	tr.exchange("neighbors missing fp", "POST", "/v1/neighbors", `{"k":2}`)
	tr.exchange("neighbors negative k", "POST", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"k":-1}`, a))
	tr.exchange("neighbors k over limit", "POST", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"k":1000}`, a))
	tr.exchange("neighbors unknown metric", "POST", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"metric":"nope"}`, a))
	tr.exchange("neighbors unknown fp", "POST", "/v1/neighbors", `{"fp":"eeee"}`)
	tr.exchange("neighbors bad JSON", "POST", "/v1/neighbors", `{"fp":`)

	tr.exchange("diverse", "POST", "/v1/diverse-subset", fmt.Sprintf(`{"aigs":[%q,%q,%q],"k":2,"metric":"RGC"}`, a, b, c))
	tr.exchange("diverse zero k", "POST", "/v1/diverse-subset", `{"k":0}`)
	tr.exchange("diverse k over limit", "POST", "/v1/diverse-subset", `{"k":65}`)
	tr.exchange("diverse pool too small", "POST", "/v1/diverse-subset", fmt.Sprintf(`{"aigs":[%q,%q],"k":2}`, a, a))
	tr.exchange("diverse unknown fp", "POST", "/v1/diverse-subset", fmt.Sprintf(`{"aigs":[%q,"eeee"],"k":2}`, a))
	tr.exchange("diverse bad JSON", "POST", "/v1/diverse-subset", `{`)

	tr.exchange("optimize", "POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, a))
	d.waitJob(t, "j000001")
	tr.exchange("optimize finished", "GET", "/v1/jobs/j000001", "")
	tr.exchange("optimize bad JSON", "POST", "/v1/optimize", `{"aig":`)
	tr.exchange("optimize unknown flow", "POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"nope"}`, a))
	tr.exchange("optimize unknown fp", "POST", "/v1/optimize", `{"aig":"eeee"}`)
	tr.exchange("optimize too many inputs", "POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, w))

	tr.exchange("report", "POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["dc2"],"metrics":["VEO","RGC"]}`, a, b))
	d.waitJob(t, "j000002")
	tr.exchange("report finished", "GET", "/v1/jobs/j000002", "")
	tr.exchange("report bad JSON", "POST", "/v1/report", `{"a":`)
	tr.exchange("report unknown metric", "POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["nope"]}`, a, b))
	tr.exchange("report unknown flow", "POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["nope"]}`, a, b))
	tr.exchange("report unknown fp", "POST", "/v1/report", fmt.Sprintf(`{"a":"eeee","b":%q}`, b))
	tr.exchange("report too many inputs", "POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["dc2"]}`, a, w))

	tr.exchange("job unknown", "GET", "/v1/jobs/j999999", "")
	tr.exchange("cancel finished", "DELETE", "/v1/jobs/j000001", "")
	tr.exchange("cancel unknown", "DELETE", "/v1/jobs/j999999", "")
	tr.exchange("healthz", "GET", "/healthz", "")
	tr.exchange("unknown route", "GET", "/v1/nope", "")
	tr.exchange("wrong method", "GET", "/v1/metrics", "")

	// A full worker queue sheds every pooled route with 429.
	armChaos(t, PointPoolSubmit, faultinject.Always(), faultinject.Fault{Mode: faultinject.ModeError})
	tr.exchange("metrics shed", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q}`, a, c))
	tr.exchange("batch shed", "POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q,%q]}`, a, c))
	tr.exchange("neighbors shed", "POST", "/v1/neighbors", fmt.Sprintf(`{"fp":%q}`, a))
	tr.exchange("diverse shed", "POST", "/v1/diverse-subset", `{"k":2}`)
	tr.exchange("optimize shed", "POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q,"flow":"dc2"}`, b))
	tr.exchange("report shed", "POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q,"flows":["dc2"]}`, a, c))
	faultinject.Disable()
	faultinject.Reset()

	if err := d.svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct{ method, path, body string }{
		{"POST", "/v1/aigs", testAIG(t, 4)},
		{"GET", "/v1/aigs/" + a, ""},
		{"POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b)},
		{"POST", "/v1/metrics/batch", fmt.Sprintf(`{"aigs":[%q,%q]}`, a, b)},
		{"POST", "/v1/neighbors", fmt.Sprintf(`{"fp":%q}`, a)},
		{"POST", "/v1/diverse-subset", `{"k":2}`},
		{"POST", "/v1/optimize", fmt.Sprintf(`{"aig":%q}`, a)},
		{"POST", "/v1/report", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b)},
		{"GET", "/v1/jobs/j000001", ""},
		{"DELETE", "/v1/jobs/j000001", ""},
		{"GET", "/healthz", ""},
	} {
		tr.exchange("draining", route.method, route.path, route.body)
	}
	tr.compare(surfaceGolden)
}
