package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tpminer/internal/dataio"
	"tpminer/internal/gen"
)

const csvBody = `sequence_id,symbol,start,end
s1,A,0,4
s1,B,2,6
s2,A,10,14
s2,B,12,16
s3,B,0,2
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	// A roomy semaphore: these tests exercise functional behavior, not
	// backpressure (hardening_test.go covers 429s deterministically).
	ts := httptest.NewServer(NewWithConfig(nil, Config{MaxConcurrentMines: 32}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/healthz", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ts := newTestServer(t)

	// Create.
	resp, body := do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	var sum DatasetSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sequences != 3 || sum.Intervals != 5 || sum.Symbols != 2 {
		t.Errorf("summary: %+v", sum)
	}

	// Replace returns 200.
	resp, _ = do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("replace: %d", resp.StatusCode)
	}

	// Get.
	resp, body = do(t, "GET", ts.URL+"/datasets/demo", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"sequences":3`) {
		t.Errorf("get: %d %q", resp.StatusCode, body)
	}

	// List.
	resp, body = do(t, "GET", ts.URL+"/datasets", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"name":"demo"`) {
		t.Errorf("list: %d %q", resp.StatusCode, body)
	}

	// Append (line format).
	resp, body = do(t, "POST", ts.URL+"/datasets/demo/append", "text/plain", "s4: A[0,4] B[2,6]\n")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"sequences":4`) {
		t.Errorf("append: %d %q", resp.StatusCode, body)
	}

	// Delete.
	resp, _ = do(t, "DELETE", ts.URL+"/datasets/demo", "", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/datasets/demo", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete: %d", resp.StatusCode)
	}
}

func TestMineTemporalEndpoint(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)

	resp, body := do(t, "POST", ts.URL+"/datasets/demo/mine", "application/json",
		`{"min_count":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %q", resp.StatusCode, body)
	}
	var mr MineResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Type != "temporal" || mr.Count == 0 || mr.Count != len(mr.Patterns) {
		t.Errorf("response: %+v", mr)
	}
	foundOverlap := false
	for _, p := range mr.Patterns {
		if p.Pattern == "A+ B+ A- B-" && p.Support == 2 && p.Relations == "A overlaps B" {
			foundOverlap = true
		}
	}
	if !foundOverlap {
		t.Errorf("overlap pattern missing: %+v", mr.Patterns)
	}
	if mr.Stats.Sequences != 3 || mr.Stats.MinCount != 2 {
		t.Errorf("stats: %+v", mr.Stats)
	}
}

func TestMineVariants(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)

	// Coincidence.
	resp, body := do(t, "POST", ts.URL+"/datasets/demo/mine", "application/json",
		`{"type":"coincidence","min_count":2}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "{A B}") {
		t.Errorf("coincidence: %d %q", resp.StatusCode, body)
	}

	// Top-k.
	resp, body = do(t, "POST", ts.URL+"/datasets/demo/mine", "application/json",
		`{"top_k":2}`)
	var mr MineResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || mr.Count != 2 {
		t.Errorf("topk: %d count=%d", resp.StatusCode, mr.Count)
	}

	// Maximal filter removes subsumed single intervals.
	resp, body = do(t, "POST", ts.URL+"/datasets/demo/mine", "application/json",
		`{"min_count":2,"filter":"maximal"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maximal: %d %q", resp.StatusCode, body)
	}
	if strings.Contains(body, `"pattern":"A+ A-"`) {
		t.Errorf("maximal kept subsumed pattern: %q", body)
	}
}

// TestMineParallelField: "parallel" is a deprecated field kept for wire
// compatibility and otherwise ignored. With the default Config, on a
// dataset below the shard floor (20 sequences) and on a sharded one
// (1000 sequences), every accepted value returns the same body, after
// normalizing elapsed_ms, and the same ETag. Each value gets a fresh
// server so every mine is a cache miss. A negative value and parallel in
// rules mode are still rejected.
func TestMineParallelField(t *testing.T) {
	datasets := []struct {
		seqs       int
		minSupport float64
	}{{20, 0.3}, {1000, 0.05}}
	csvs := make([]string, len(datasets))
	for i, d := range datasets {
		db, _, err := gen.Quest(gen.QuestConfig{NumSequences: d.seqs, AvgIntervals: 10, NumSymbols: 100, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := dataio.WriteCSV(&b, db); err != nil {
			t.Fatal(err)
		}
		csvs[i] = b.String()
	}
	wantBody := make([]string, len(datasets))
	wantETag := make([]string, len(datasets))
	for _, par := range []int{0, 2, 64} {
		srv := NewWithConfig(nil, Config{})
		ts := httptest.NewServer(srv.Handler())
		for i, d := range datasets {
			url := fmt.Sprintf("%s/v1/datasets/d%d", ts.URL, d.seqs)
			if resp, body := do(t, "PUT", url, "text/csv", csvs[i]); resp.StatusCode != http.StatusCreated {
				t.Fatalf("put %d sequences: %d %q", d.seqs, resp.StatusCode, body)
			}
			spec := fmt.Sprintf(`{"min_support":%v,"parallel":%d}`, d.minSupport, par)
			resp, body := do(t, "POST", url+"/mine", "application/json", spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mine %s on %d sequences: %d %q", spec, d.seqs, resp.StatusCode, body)
			}
			body, etag := normalizeElapsed(body), resp.Header.Get("ETag")
			if par == 0 {
				if etag == "" {
					t.Fatalf("%d sequences: complete mine carries no ETag", d.seqs)
				}
				wantBody[i], wantETag[i] = body, etag
				continue
			}
			if body != wantBody[i] {
				t.Errorf("%d sequences, parallel=%d: body differs from parallel=0:\n%s\nvs\n%s", d.seqs, par, body, wantBody[i])
			}
			if etag != wantETag[i] {
				t.Errorf("%d sequences, parallel=%d: ETag %s, want %s", d.seqs, par, etag, wantETag[i])
			}
		}
		ts.Close()
		srv.Close()
	}

	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)
	for _, spec := range []string{
		`{"min_count":2,"parallel":-1}`,
		`{"mode":"rules","min_count":2,"parallel":2}`,
	} {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", spec)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "parallel") {
			t.Errorf("%s: %d %q, want a 400 naming parallel", spec, resp.StatusCode, body)
		}
	}
}

func TestRulesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)

	resp, body := do(t, "POST", ts.URL+"/datasets/demo/rules", "application/json",
		`{"min_count":2,"min_confidence":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rules: %d %q", resp.StatusCode, body)
	}
	var rules []WireRule
	if err := json.Unmarshal([]byte(body), &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules derived")
	}
	for _, r := range rules {
		if r.Confidence < 0.5 || r.Confidence > 1 {
			t.Errorf("confidence out of range: %+v", r)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)

	cases := []struct {
		name         string
		method, path string
		ctype, body  string
		wantStatus   int
	}{
		{"mine missing dataset", "POST", "/datasets/nope/mine", "application/json", `{"min_count":1}`, 404},
		{"append missing dataset", "POST", "/datasets/nope/append", "text/plain", "A[1,2]\n", 404},
		{"delete missing dataset", "DELETE", "/datasets/nope", "", "", 404},
		{"bad upload format", "PUT", "/datasets/x", "application/xml", "<x/>", 415},
		{"bad csv", "PUT", "/datasets/x", "text/csv", "a,b\n", 400},
		{"mine no threshold", "POST", "/datasets/demo/mine", "application/json", `{}`, 400},
		{"mine bad type", "POST", "/datasets/demo/mine", "application/json", `{"type":"x","min_count":1}`, 400},
		{"mine bad filter", "POST", "/datasets/demo/mine", "application/json", `{"min_count":1,"filter":"x"}`, 400},
		{"mine unknown field", "POST", "/datasets/demo/mine", "application/json", `{"bogus":1}`, 400},
		{"rules bad confidence", "POST", "/datasets/demo/rules", "application/json", `{"min_count":1,"min_confidence":3}`, 400},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, c.ctype, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d (want %d), body %q", c.name, resp.StatusCode, c.wantStatus, body)
		}
		if c.wantStatus >= 400 && !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error envelope missing: %q", c.name, body)
		}
	}
}

func TestConcurrentMineAndAppend(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/datasets/demo", "text/csv", csvBody)

	done := make(chan error, 20)
	for i := 0; i < 10; i++ {
		go func() {
			resp, _ := do(t, "POST", ts.URL+"/datasets/demo/mine", "application/json", `{"min_count":1}`)
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("mine status %d", resp.StatusCode)
				return
			}
			done <- nil
		}()
		go func(i int) {
			resp, _ := do(t, "POST", ts.URL+"/datasets/demo/append", "text/plain",
				fmt.Sprintf("x%d: A[0,4]\n", i))
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("append status %d", resp.StatusCode)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
