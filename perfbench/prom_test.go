package main

import (
	"io"
	"net/http/httptest"
	"testing"

	"tpminer/internal/server"
)

func TestParsePromLabels(t *testing.T) {
	snap, err := parseProm([]byte(`# HELP x_total help
# TYPE x_total counter
x_total{route="/a",api="v1"} 3
x_total{route="/b",api="v1"} 4
x_total{route="q\"uo,te",api="legacy"} 5
y 1.5e3
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.sum("x_total", nil); got != 12 {
		t.Errorf("sum of x_total = %v, want 12", got)
	}
	if got := snap.sum("x_total", label("api", "v1")); got != 7 {
		t.Errorf("x_total{api=v1} = %v, want 7", got)
	}
	if got := snap.sum("x_total", label("route", `q"uo,te`)); got != 5 {
		t.Errorf("escaped label value: got %v, want 5", got)
	}
	if got := snap.sum("y", nil); got != 1500 {
		t.Errorf("y = %v, want 1500", got)
	}
}

// TestParsePromServer parses the server's own exposition, so a change to
// its format breaks here rather than silently zeroing per-layer metrics.
func TestParsePromServer(t *testing.T) {
	svc := server.New(nil)
	defer svc.Close()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	body, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseProm(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"tpmd_cache_hits_total", "tpmd_cache_resident_bytes",
		"tpmd_mine_duration_seconds_count", "tpmd_job_run_duration_seconds_sum",
		"tpmd_persist_fsyncs_total", "tpmd_ingest_batches_total",
	} {
		found := false
		for _, s := range snap {
			found = found || s.name == family
		}
		if !found {
			t.Errorf("family %s missing from the server's exposition", family)
		}
	}
}
