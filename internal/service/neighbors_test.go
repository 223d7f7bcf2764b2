package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/aiger"
	"repro/internal/synth"
	"repro/internal/tt"
)

// variantAIG synthesizes one recipe's realization of a seeded spec —
// the corpus generator for retrieval tests: same-seed different-recipe
// graphs are structural near-neighbors, different seeds are noise.
func variantAIG(t testing.TB, seed int64, recipe string) string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	spec := []tt.TT{tt.Random(6, r)}
	for _, rec := range synth.Recipes() {
		if rec.Name == recipe {
			var b bytes.Buffer
			if err := aiger.WriteASCII(&b, rec.Build(spec)); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
	}
	t.Fatalf("unknown recipe %q", recipe)
	return ""
}

// TestNeighborsExactFallback: a corpus the budget covers answers via
// the ground-truth scan even without exact=true, and the accounting
// says so.
func TestNeighborsExactFallback(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fps := make([]string, 5)
	for i := range fps {
		fps[i] = d.submit(t, testAIG(t, int64(300+i))).Fingerprint
	}
	var resp NeighborsResponse
	body := fmt.Sprintf(`{"fp":%q,"k":3}`, fps[0])
	if code := d.do(t, "POST", "/v1/neighbors", body, &resp); code != http.StatusOK {
		t.Fatalf("neighbors: status %d", code)
	}
	if !resp.Exact {
		t.Error("small corpus did not take the exact path")
	}
	if resp.Corpus != 4 || resp.Evals != 4 {
		t.Errorf("corpus/evals = %d/%d, want 4/4", resp.Corpus, resp.Evals)
	}
	if len(resp.Neighbors) != 3 {
		t.Fatalf("got %d neighbors, want 3", len(resp.Neighbors))
	}
	for _, n := range resp.Neighbors {
		if n.Fingerprint == fps[0] {
			t.Error("query returned itself")
		}
	}
}

// TestNeighborsSketchVsExact: on a clustered corpus the sketch-pruned
// path must spend strictly fewer evaluations than the corpus size and
// still recover the exact top neighbors. Everything is seeded, so the
// outcome is reproducible, not flaky.
func TestNeighborsSketchVsExact(t *testing.T) {
	d := newTestDaemon(t, Config{})
	// A cluster of same-function variants around the query plus noise.
	query := d.submit(t, variantAIG(t, 7000, "sop")).Fingerprint
	for _, rec := range []string{"esp", "fx", "bdd", "shannon", "dsd"} {
		d.submit(t, variantAIG(t, 7000, rec))
	}
	for i := 0; i < 40; i++ {
		d.submit(t, variantAIG(t, int64(7100+i), "sop"))
	}

	get := func(body string) NeighborsResponse {
		var resp NeighborsResponse
		if code := d.do(t, "POST", "/v1/neighbors", body, &resp); code != http.StatusOK {
			t.Fatalf("neighbors: status %d", code)
		}
		return resp
	}
	exact := get(fmt.Sprintf(`{"fp":%q,"k":5,"metric":"WLKernel","exact":true}`, query))
	if !exact.Exact {
		t.Fatal("exact=true did not take the exact path")
	}
	sketched := get(fmt.Sprintf(`{"fp":%q,"k":5,"metric":"WLKernel","budget":12}`, query))
	if sketched.Exact {
		t.Fatal("budget 12 over a 45-graph corpus should have taken the sketch path")
	}
	if sketched.Evals > 12 || sketched.Evals >= sketched.Corpus {
		t.Errorf("sketch path spent %d evals over corpus %d", sketched.Evals, sketched.Corpus)
	}
	truth := make(map[string]bool, len(exact.Neighbors))
	for _, n := range exact.Neighbors {
		truth[n.Fingerprint] = true
	}
	overlap := 0
	for _, n := range sketched.Neighbors {
		if truth[n.Fingerprint] {
			overlap++
		}
	}
	if overlap < 4 {
		t.Errorf("sketch top-5 recovered %d/5 of the exact top-5", overlap)
	}
	if sketched.Neighbors[0].Fingerprint != exact.Neighbors[0].Fingerprint {
		t.Errorf("sketch top-1 %q != exact top-1 %q",
			sketched.Neighbors[0].Fingerprint, exact.Neighbors[0].Fingerprint)
	}
}

// TestDiverseByteIdentical: repeated diverse-subset selections over the
// same corpus must return byte-identical bodies — the determinism
// contract of the selection (sorted pool, fingerprint tie-breaks,
// fingerprint-seeded profiles).
func TestDiverseByteIdentical(t *testing.T) {
	d := newTestDaemon(t, Config{})
	for i := 0; i < 12; i++ {
		d.submit(t, testAIG(t, int64(400+i)))
	}
	raw := func() string {
		resp, err := d.ts.Client().Post(d.ts.URL+"/v1/diverse-subset", "application/json",
			strings.NewReader(`{"k":4,"metric":"WLKernel"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("diverse-subset: status %d: %s", resp.StatusCode, b)
		}
		return string(b)
	}
	first := raw()
	for i := 0; i < 3; i++ {
		if again := raw(); again != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i+2, again, first)
		}
	}

	var resp DiverseResponse
	if code := d.do(t, "POST", "/v1/diverse-subset", `{"k":4}`, &resp); code != http.StatusOK {
		t.Fatalf("diverse-subset: status %d", code)
	}
	if len(resp.Chosen) != 4 || len(resp.Matrix) != 4 {
		t.Fatalf("chosen/matrix sized %d/%d, want 4/4", len(resp.Chosen), len(resp.Matrix))
	}
	seen := make(map[string]bool)
	for i, fp := range resp.Chosen {
		if seen[fp] {
			t.Errorf("fingerprint %q chosen twice", fp)
		}
		seen[fp] = true
		if len(resp.Matrix[i]) != 4 {
			t.Errorf("matrix row %d has %d columns", i, len(resp.Matrix[i]))
		}
		// The matrix must be symmetric: metric scores are symmetric.
		for j := range resp.Matrix[i] {
			if resp.Matrix[i][j] != resp.Matrix[j][i] {
				t.Errorf("matrix[%d][%d]=%v != matrix[%d][%d]=%v",
					i, j, resp.Matrix[i][j], j, i, resp.Matrix[j][i])
			}
		}
	}
}

// TestDiverseExplicitPool: an explicit fingerprint pool restricts the
// selection, and unknown members 404.
func TestDiverseExplicitPool(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fps := make([]string, 6)
	for i := range fps {
		fps[i] = d.submit(t, testAIG(t, int64(430+i))).Fingerprint
	}
	body := fmt.Sprintf(`{"aigs":[%q,%q,%q],"k":2}`, fps[0], fps[1], fps[2])
	var resp DiverseResponse
	if code := d.do(t, "POST", "/v1/diverse-subset", body, &resp); code != http.StatusOK {
		t.Fatalf("diverse-subset: status %d", code)
	}
	pool := map[string]bool{fps[0]: true, fps[1]: true, fps[2]: true}
	for _, fp := range resp.Chosen {
		if !pool[fp] {
			t.Errorf("chose %q from outside the explicit pool", fp)
		}
	}
	if code := d.do(t, "POST", "/v1/diverse-subset", `{"aigs":["nope","x"],"k":2}`, nil); code != http.StatusNotFound {
		t.Errorf("unknown pool member: status %d, want 404", code)
	}
}

// TestRetrievalValidation: malformed retrieval requests answer 4xx.
func TestRetrievalValidation(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fp := d.submit(t, testAIG(t, 440)).Fingerprint
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"neighbors no fp", "/v1/neighbors", `{"k":3}`, http.StatusBadRequest},
		{"neighbors negative k", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"k":-2}`, fp), http.StatusBadRequest},
		{"neighbors negative budget", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"budget":-1}`, fp), http.StatusBadRequest},
		{"neighbors huge k", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"k":100000}`, fp), http.StatusBadRequest},
		{"neighbors bad metric", "/v1/neighbors", fmt.Sprintf(`{"fp":%q,"metric":"nope"}`, fp), http.StatusBadRequest},
		{"neighbors unknown fp", "/v1/neighbors", `{"fp":"ffff"}`, http.StatusNotFound},
		{"neighbors bad json", "/v1/neighbors", `{"fp":`, http.StatusBadRequest},
		{"diverse zero k", "/v1/diverse-subset", `{"k":0}`, http.StatusBadRequest},
		{"diverse huge k", "/v1/diverse-subset", `{"k":100000}`, http.StatusBadRequest},
		{"diverse bad metric", "/v1/diverse-subset", `{"k":2,"metric":"nope"}`, http.StatusBadRequest},
		{"diverse unknown field", "/v1/diverse-subset", `{"k":2,"zzz":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := d.do(t, "POST", tc.path, tc.body, nil); code != tc.want {
				t.Errorf("status %d, want %d", code, tc.want)
			}
		})
	}
}

// TestBatchOverCapStructured: the over-cap refusal reports the actual
// cap and request size, and counts the shed.
func TestBatchOverCapStructured(t *testing.T) {
	d := newTestDaemon(t, Config{})
	fps := make([]string, maxBatchAIGs+1)
	for i := range fps {
		fps[i] = fmt.Sprintf("f%04d", i) // resolution happens after the cap check
	}
	body := fmt.Sprintf(`{"aigs":["%s"]}`, strings.Join(fps, `","`))
	var capErr BatchCapError
	if code := d.do(t, "POST", "/v1/metrics/batch", body, &capErr); code != http.StatusBadRequest {
		t.Fatalf("over-cap batch: status %d, want 400", code)
	}
	if capErr.Cap != maxBatchAIGs || capErr.Size != maxBatchAIGs+1 {
		t.Errorf("cap error = %+v, want cap %d size %d", capErr, maxBatchAIGs, maxBatchAIGs+1)
	}
	if capErr.Error == "" {
		t.Error("cap error body has no message")
	}
	if got := d.counter("service/batch_shed"); got != 1 {
		t.Errorf("service/batch_shed = %d, want 1", got)
	}
}

// TestBatchPruned: a batch above maxBatchExact goes two-stage — the
// response says so, the pruned and evaluated pairs partition the pair
// space, and duplicate fingerprints still score.
func TestBatchPruned(t *testing.T) {
	d := newTestDaemon(t, Config{})
	n := maxBatchExact + 8
	fps := make([]string, n)
	for i := 0; i < n-1; i++ {
		fps[i] = d.submit(t, testAIG(t, int64(500+i))).Fingerprint
	}
	fps[n-1] = fps[0] // duplicate: must evaluate despite pruning
	body := fmt.Sprintf(`{"aigs":["%s"],"metrics":["WLKernel"]}`, strings.Join(fps, `","`))
	var resp BatchResponse
	if code := d.do(t, "POST", "/v1/metrics/batch", body, &resp); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if !resp.Pruned {
		t.Fatalf("batch of %d was not pruned", n)
	}
	total := n * (n - 1) / 2
	if got := len(resp.Pairs) + resp.PrunedPairs; got != total {
		t.Errorf("pairs %d + pruned %d = %d, want %d", len(resp.Pairs), resp.PrunedPairs, got, total)
	}
	if resp.PrunedPairs == 0 {
		t.Error("no pairs pruned on a random corpus")
	}
	dupScored := false
	for _, p := range resp.Pairs {
		if p.I == 0 && p.J == n-1 {
			dupScored = true
			if p.Scores["WLKernel"] != 1 {
				t.Errorf("duplicate pair WLKernel = %v, want 1", p.Scores["WLKernel"])
			}
		}
	}
	if !dupScored {
		t.Error("duplicate-fingerprint pair was pruned away")
	}
	if d.counter("sketch/pruned") == 0 || d.counter("sketch/exact_evals") == 0 {
		t.Error("pruning counters did not move")
	}
}

// TestIndexStoreConsistency: under concurrent intern/evict churn and
// concurrent sketch queries, the index must track LRU membership
// exactly — never serving an evicted fingerprint, never missing a live
// one. Run under -race this is also the locking proof.
func TestIndexStoreConsistency(t *testing.T) {
	d := newTestDaemon(t, Config{StoreEntries: 12, Workers: 4})

	// Learn the universe of fingerprints first (this also churns the
	// 12-entry LRU through its first evictions).
	payloads := make([]string, 40)
	universe := make(map[string]bool, len(payloads))
	for i := range payloads {
		payloads[i] = testAIG(t, int64(600+i))
		universe[d.submit(t, payloads[i]).Fingerprint] = true
	}
	fps := make([]string, 0, len(universe))
	for fp := range universe {
		fps = append(fps, fp)
	}

	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := payloads[(w*13+i)%len(payloads)]
				resp, err := d.ts.Client().Post(d.ts.URL+"/v1/aigs", "application/octet-stream", strings.NewReader(p))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				fp := fps[(w*7+i)%len(fps)]
				body := fmt.Sprintf(`{"fp":%q,"k":3,"budget":4}`, fp)
				resp, err := d.ts.Client().Post(d.ts.URL+"/v1/neighbors", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusNotFound, http.StatusTooManyRequests:
				default:
					errs <- fmt.Errorf("neighbors answered %d: %s", resp.StatusCode, raw)
					return
				}
				if resp.StatusCode == http.StatusOK {
					// Every returned fingerprint must come from the
					// submitted universe — an index entry that outlived
					// its store entry would leak foreign fingerprints.
					var nr NeighborsResponse
					if err := json.Unmarshal(raw, &nr); err != nil {
						errs <- err
						return
					}
					for _, nb := range nr.Neighbors {
						if !universe[nb.Fingerprint] {
							errs <- fmt.Errorf("neighbor %q not in the submitted universe", nb.Fingerprint)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Final state: index membership == LRU membership, exactly.
	var live []string
	for _, e := range d.svc.store.snapshot() {
		live = append(live, e.fp)
	}
	indexed := d.svc.store.index.Fingerprints()
	if !reflect.DeepEqual(live, indexed) {
		t.Fatalf("index diverged from store:\nstore %v\nindex %v", live, indexed)
	}
	if len(live) != 12 {
		t.Errorf("store holds %d entries, want its cap of 12", len(live))
	}
}
