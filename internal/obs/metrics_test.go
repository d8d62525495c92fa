package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func expositionOf(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Total jobs.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	out := expositionOf(t, r)
	for _, want := range []string{
		"# HELP jobs_total Total jobs.\n",
		"# TYPE jobs_total counter\n",
		"jobs_total 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("http_requests_total", "Requests.", "route", "code")
	v.With("/mine", "2xx").Add(3)
	v.With("/mine", "5xx").Inc()
	v.With(`/odd"name`, "2xx").Inc() // label value needing escaping

	out := expositionOf(t, r)
	for _, want := range []string{
		`http_requests_total{route="/mine",code="2xx"} 3`,
		`http_requests_total{route="/mine",code="5xx"} 1`,
		`http_requests_total{route="/odd\"name",code="2xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Same labels return the same counter.
	if v.With("/mine", "2xx").Value() != 3 {
		t.Error("With() did not return the existing series")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("in_flight", "In-flight requests.")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("Value = %d, want 1", g.Value())
	}
	g.Set(12)
	if out := expositionOf(t, r); !strings.Contains(out, "in_flight 12\n") {
		t.Errorf("exposition: %s", out)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.6) > 1e-9 {
		t.Fatalf("Sum = %v, want 102.6", h.Sum())
	}

	out := expositionOf(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 102.6",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Quantiles report conservative (bucket upper bound) estimates.
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("Quantile(0.5) = %v, want 1", q)
	}
	if q := h.Quantile(0.99); q != 10 { // lands in +Inf: clamp to last bound
		t.Errorf("Quantile(0.99) = %v, want 10", q)
	}
	empty := newHistogram(nil)
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty Quantile = %v, want 0", q)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("dur_seconds", "Durations.", []float64{1}, "route")
	v.With("/a").Observe(0.5)
	v.With("/a").Observe(2)
	out := expositionOf(t, r)
	for _, want := range []string{
		`dur_seconds_bucket{route="/a",le="1"} 1`,
		`dur_seconds_bucket{route="/a",le="+Inf"} 2`,
		`dur_seconds_count{route="/a"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("a_total", "")
	mustPanic("duplicate name", func() { r.NewGauge("a_total", "") })
	mustPanic("invalid name", func() { r.NewCounter("0bad", "") })
	mustPanic("invalid label", func() { r.NewCounterVec("b_total", "", "bad-label") })
	mustPanic("label arity", func() { r.NewCounterVec("c_total", "", "x").With("1", "2") })
	mustPanic("unsorted buckets", func() { r.NewHistogram("h", "", []float64{2, 1}) })
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "X.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body: %s", rec.Body.String())
	}
}

// TestConcurrentUpdates hammers every metric type from several
// goroutines; correctness of the totals plus the race detector cover the
// lock-free paths.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "")
	g := r.NewGauge("gg", "")
	h := r.NewHistogram("hh_seconds", "", nil)
	v := r.NewCounterVec("vv_total", "", "w")

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 100)
				v.With(lbl).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*perWorker {
		t.Errorf("vec total = %d, want %d", got, workers*perWorker)
	}
	// Exposition during writes must not corrupt (covered by -race) and
	// must include every family.
	out := expositionOf(t, r)
	for _, want := range []string{"cc_total", "gg", "hh_seconds_count", "vv_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var b bytes.Buffer
	lg, err := NewLogger(&b, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "k", "v")
	out := b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) || !strings.Contains(out, `"k":"v"`) {
		t.Errorf("json log output: %q", out)
	}

	if _, err := NewLogger(&b, "xml", ""); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := NewLogger(&b, "", "loud"); err == nil {
		t.Error("bad level accepted")
	}

	// Discard drops records and reports disabled.
	Discard().Error("nothing")
}
