package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// fetchRouteTable pulls the machine-readable route table from a live
// server — the same JSON clients use for discovery — so the contract
// tests assert against what is actually served, not a parallel list.
func fetchRouteTable(t *testing.T, baseURL string) []RouteInfo {
	t.Helper()
	resp, body := do(t, "GET", baseURL+"/v1/routes", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/routes: %d %q", resp.StatusCode, body)
	}
	var payload struct {
		Routes []RouteInfo `json:"routes"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("GET /v1/routes: malformed JSON: %v", err)
	}
	if len(payload.Routes) == 0 {
		t.Fatal("GET /v1/routes returned no routes")
	}
	return payload.Routes
}

// TestRoutesDocumentedInREADME is the route contract: every route the
// server serves — as listed by its own GET /v1/routes endpoint — must
// appear, verbatim as "METHOD /v1/path", in the README's API reference
// table. Adding a route without documenting it fails `make verify`.
func TestRoutesDocumentedInREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("README.md not readable from the package directory: %v", err)
	}
	doc := string(readme)
	ts := newTestServer(t)
	for _, rt := range fetchRouteTable(t, ts.URL) {
		route := rt.Method + " /v1" + rt.Pattern
		if !strings.Contains(doc, route) {
			t.Errorf("served route %q is missing from the README API reference table", route)
		}
		if rt.Summary == "" {
			t.Errorf("route %q has no summary in the route table", route)
		}
	}
}

// TestRouteTableMatchesServer: the served table and the compiled-in one
// agree, and Routes() renders every entry.
func TestRouteTableMatchesServer(t *testing.T) {
	ts := newTestServer(t)
	served := fetchRouteTable(t, ts.URL)
	compiled := RouteTable()
	if len(served) != len(compiled) {
		t.Fatalf("served table has %d routes, RouteTable() has %d", len(served), len(compiled))
	}
	for i, rt := range compiled {
		if served[i] != rt {
			t.Errorf("route %d: served %+v != compiled %+v", i, served[i], rt)
		}
	}
	routes := Routes()
	if len(routes) != len(compiled) {
		t.Fatalf("Routes() has %d entries, RouteTable() has %d", len(routes), len(compiled))
	}
	for i, rt := range compiled {
		want := rt.Method + " /v1" + rt.Pattern
		if routes[i] != want {
			t.Errorf("Routes()[%d] = %q, want %q", i, routes[i], want)
		}
	}
}

// routePath fills a route pattern's placeholders with the dataset x and
// the job j1 that requestRoute creates.
func routePath(rt RouteInfo) string {
	path := strings.ReplaceAll(rt.Pattern, "{name}", "x")
	return strings.ReplaceAll(path, "{id}", "j1")
}

// requestRoute issues rt's method on path with a body the route
// accepts, after recreating the dataset and job it names, so earlier
// DELETE iterations cannot turn a served route into a spurious 404.
func requestRoute(t *testing.T, baseURL string, rt RouteInfo, path string) (int, http.Header, string) {
	t.Helper()
	do(t, "PUT", baseURL+"/v1/datasets/x", "text/csv", csvBody)
	do(t, "POST", baseURL+"/v1/jobs", "application/json", `{"id":"j1","dataset":"x"}`)
	defer do(t, "DELETE", baseURL+"/v1/jobs/j2", "", "")
	body, ctype := "", ""
	if rt.Method == "POST" || rt.Method == "PUT" {
		body, ctype = "s9: A[0,4]\n", "text/plain"
		switch {
		case strings.HasSuffix(path, "/mine"):
			body, ctype = `{"min_count":2}`, "application/json"
		case strings.HasSuffix(path, "/events"):
			body, ctype = `{"seq":"s9","symbol":"A","start":0,"end":4}`+"\n", "application/x-ndjson"
		case strings.HasSuffix(path, "/jobs"):
			body, ctype = `{"id":"j2","dataset":"x"}`, "application/json"
		}
	}
	return doRoute(t, rt.Method, baseURL+path, ctype, body)
}

// muxNotFound reports whether a response is the mux's own plain-text
// 404 — the path resolved to no route — rather than a handler's 404,
// which carries the uniform error envelope.
func muxNotFound(status int, body string) bool {
	return status == http.StatusNotFound && !strings.Contains(body, `"error"`)
}

// TestRouteTableIsServed proves the route table is not aspirational:
// every listed route resolves to a handler (no 404/405 from the mux) on
// /v1, and unlisted paths still 404.
func TestRouteTableIsServed(t *testing.T) {
	ts := newTestServer(t)

	for _, rt := range fetchRouteTable(t, ts.URL) {
		p := "/v1" + routePath(rt)
		status, _, respBody := requestRoute(t, ts.URL, rt, p)
		if muxNotFound(status, respBody) || status == http.StatusMethodNotAllowed {
			t.Errorf("listed route %s %s not served: %d %q", rt.Method, p, status, respBody)
		}
	}

	resp, _ := do(t, "GET", ts.URL+"/v1/unknown", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unlisted path served: %d", resp.StatusCode)
	}
}

// doRoute issues one request but, unlike do, never blocks on an
// unbounded body: the SSE events route streams until the client
// disconnects, so only its status and headers matter here.
func doRoute(t *testing.T, method, url, contentType, body string) (int, http.Header, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
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
	if strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		return resp.StatusCode, resp.Header, "(event stream)"
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	return resp.StatusCode, resp.Header, string(buf[:n])
}

// TestOnlyV1Served: /v1 is the one API surface. Every route's path
// without the /v1 prefix, and the removed POST /v1/datasets/{name}/rules,
// is a mux 404, and no /v1 response is marked deprecated.
func TestOnlyV1Served(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	routes := RouteTable()
	if len(routes) != 18 {
		t.Errorf("route table has %d routes, want 18", len(routes))
	}
	for _, rt := range routes {
		p := routePath(rt)
		if status, _, body := requestRoute(t, ts.URL, rt, p); !muxNotFound(status, body) {
			t.Errorf("unversioned %s %s served: %d %q", rt.Method, p, status, body)
		}
		status, hdr, body := requestRoute(t, ts.URL, rt, "/v1"+p)
		if muxNotFound(status, body) {
			t.Errorf("%s /v1%s not served: %d", rt.Method, p, status)
		}
		if d := hdr.Get("Deprecation"); d != "" {
			t.Errorf("%s /v1%s carries Deprecation: %q", rt.Method, p, d)
		}
	}
	rules := RouteInfo{Method: "POST", Pattern: "/datasets/{name}/rules"}
	if status, _, body := requestRoute(t, ts.URL, rules, "/v1/datasets/x/rules"); !muxNotFound(status, body) {
		t.Errorf("POST /v1/datasets/x/rules served: %d %q", status, body)
	}
}
