package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// peerSurfaceGolden pins every status code, Content-Type, Retry-After
// and JSON body of the peer API, plus the epoch-mismatch 409 the
// external API answers.
const peerSurfaceGolden = "testdata/peer_surface.golden"

// transcript records one scripted HTTP session against one node: for
// every exchange the status, Content-Type, Retry-After and body, with
// the cluster's httptest base URLs replaced by their node IDs.
type transcript struct {
	t   *testing.T
	tc  *testCluster
	url string
	out bytes.Buffer
}

// exchange sends one request (hdr may be nil) and records the response
// under label; it returns the raw body.
func (tr *transcript) exchange(label, method, path, body string, hdr http.Header) []byte {
	tr.t.Helper()
	req, err := http.NewRequest(method, tr.url+path, strings.NewReader(body))
	if err != nil {
		tr.t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
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
	rec := string(raw)
	for _, id := range tr.tc.ids {
		rec = strings.ReplaceAll(rec, tr.tc.urls[id], "<url of "+id+">")
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

// TestPeerSurfaceGolden runs a scripted session against one node of a
// 2-node cluster — AIG puts and gets, fill (inline payloads, refusals,
// the shed 429 and the epoch-mismatch 409), result puts, status,
// announce and reconfigure refusals — and requires the transcript to
// match the golden byte for byte. Probes are paced out of the session's
// way so peer failure counts stay at zero.
func TestPeerSurfaceGolden(t *testing.T) {
	trace.SetCollector(nil)
	resetFaults(t)
	tc := newTestCluster(t, 2, func(c *Config) { c.ProbeInterval = time.Hour })
	tr := &transcript{t: t, tc: tc, url: tc.urls["n1"]}
	fp := func(raw []byte) string {
		var v service.AIGView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		return v.Fingerprint
	}
	aigA, aigB, aigC := testAIG(t, 1), testAIG(t, 2), testAIG(t, 3)
	b64 := base64.StdEncoding.EncodeToString
	atEpoch := func(e string) http.Header { return http.Header{client.EpochHeader: {e}} }

	a := fp(tr.exchange("put AIG", "POST", "/v1/cluster/aigs", string(aigA), nil))
	tr.exchange("put AIG again", "POST", "/v1/cluster/aigs", string(aigA), nil)
	tr.exchange("put bad AIG", "POST", "/v1/cluster/aigs", "this is not aiger", nil)
	tr.exchange("get AIGER", "GET", "/v1/cluster/aigs/"+a, "", nil)
	tr.exchange("get unknown AIGER", "GET", "/v1/cluster/aigs/ffff", "", nil)

	vb, err := tc.svcs["n2"].InternAIGER(context.Background(), aigB)
	if err != nil {
		t.Fatal(err)
	}
	b := vb.Fingerprint
	tr.exchange("fill with inline payload", "POST", "/v1/cluster/fill",
		fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["VEO","RGC"],"aiger_b":%q}`, a, b, b64(aigB)), atEpoch("1"))
	tr.exchange("fill stored pair", "POST", "/v1/cluster/fill", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), atEpoch("1"))
	tr.exchange("fill without epoch", "POST", "/v1/cluster/fill", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["RLC"]}`, b, a), nil)
	tr.exchange("fill bad JSON", "POST", "/v1/cluster/fill", `{"a":`, atEpoch("1"))
	tr.exchange("fill unknown pair", "POST", "/v1/cluster/fill", `{"a":"eeee","b":"ffff"}`, atEpoch("1"))
	tr.exchange("fill mismatched payload", "POST", "/v1/cluster/fill",
		fmt.Sprintf(`{"a":"eeee","b":%q,"aiger_a":%q}`, b, b64(aigC)), atEpoch("1"))
	tr.exchange("fill bad payload", "POST", "/v1/cluster/fill",
		fmt.Sprintf(`{"a":%q,"b":"eeee","aiger_b":%q}`, a, b64([]byte("junk"))), atEpoch("1"))
	tr.exchange("fill unknown metric", "POST", "/v1/cluster/fill", fmt.Sprintf(`{"a":%q,"b":%q,"metrics":["nope"]}`, a, b), atEpoch("1"))
	tr.exchange("fill epoch ahead", "POST", "/v1/cluster/fill", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), atEpoch("7"))
	tr.exchange("fill epoch behind", "POST", "/v1/cluster/fill", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), atEpoch("0"))
	faultinject.Arm(service.PointPoolSubmit, faultinject.Always(), faultinject.Fault{Mode: faultinject.ModeError})
	faultinject.Enable()
	tr.exchange("fill shed", "POST", "/v1/cluster/fill", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), atEpoch("1"))
	faultinject.Disable()
	faultinject.Reset()

	tr.exchange("put result", "POST", "/v1/cluster/result", fmt.Sprintf(`{"a":%q,"b":%q,"scores":{"RGC":0.25}}`, a, b), nil)
	tr.exchange("put result without scores", "POST", "/v1/cluster/result", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), nil)
	tr.exchange("put result bad JSON", "POST", "/v1/cluster/result", `{"a":`, nil)

	tr.exchange("status", "GET", "/v1/cluster/status", "", nil)
	tr.exchange("announce", "POST", "/v1/cluster/announce", `{"node":"n2","epoch":1}`, nil)
	tr.exchange("announce bad JSON", "POST", "/v1/cluster/announce", `{"node":`, nil)
	tr.exchange("reconfigure bad JSON", "POST", "/v1/cluster/reconfigure", `{"epoch":`, nil)
	tr.exchange("reconfigure stale epoch", "POST", "/v1/cluster/reconfigure", `{"epoch":1,"peers":{"n1":"http://x"}}`, nil)
	tr.exchange("reconfigure without self", "POST", "/v1/cluster/reconfigure", `{"epoch":2,"peers":{"n2":"http://x"}}`, nil)

	tr.exchange("external stale epoch", "POST", "/v1/metrics", fmt.Sprintf(`{"a":%q,"b":%q}`, a, b), atEpoch("0"))
	tr.exchange("external epoch ahead", "GET", "/v1/aigs/"+a, "", atEpoch("9"))
	tr.exchange("external healthz", "GET", "/healthz", "", nil)
	tr.compare(peerSurfaceGolden)
}
