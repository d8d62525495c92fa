// Package obs is the observability layer shared by the miner's
// operational surfaces (tpmd, tpminer): a process-local metrics registry
// with Prometheus text exposition and structured-logging helpers over
// log/slog. It is deliberately stdlib-only — the repo vendors nothing —
// and implements the small subset of the Prometheus data model the
// service needs: monotone counters, gauges, and fixed-bucket histograms,
// each optionally partitioned by a bounded label set.
//
// Concurrency: every metric update is a single atomic operation (or one
// mutex hop on the first use of a new label combination), so metrics are
// safe to update from request handlers and mining workers without
// coordination. Exposition takes a per-family snapshot; it never blocks
// writers.
//
// Exposition follows the Prometheus text format version 0.0.4
// (https://prometheus.io/docs/instrumenting/exposition_formats/):
// HELP/TYPE headers, cumulative _bucket/_sum/_count series for
// histograms, and escaped label values.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in the
// Prometheus text format. The zero value is not usable; create with
// NewRegistry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family // registration order, the exposition order
	byName map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with all its label children.
type family struct {
	name, help, mtype string
	labels            []string

	mu     sync.Mutex
	series map[string]sample // key: rendered label pairs ("" for unlabelled)
}

// sample is one (labelled) time series of a family.
type sample interface {
	// expose writes the series' sample lines. name is the family name,
	// labelPairs the rendered `k="v"` pairs without braces ("" when
	// unlabelled).
	expose(w io.Writer, name, labelPairs string)
}

// register adds a family, enforcing unique, well-formed names.
func (r *Registry) register(name, help, mtype string, labels []string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	f := &family{name: name, help: help, mtype: mtype, labels: labels,
		series: make(map[string]sample)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// get returns the series for the rendered label pairs, creating it with
// mk on first use.
func (f *family) get(labelPairs string, mk func() sample) sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[labelPairs]
	if !ok {
		s = mk()
		f.series[labelPairs] = s
	}
	return s
}

// renderLabels joins label names and values into `k="v",k="v"` form.
// The slices must be the same length (checked by the Vec callers).
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- counter

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; negative deltas are a programming
// error the type system already prevents.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) expose(w io.Writer, name, labelPairs string) {
	writeSampleLine(w, name, labelPairs, formatUint(c.v.Load()))
}

// NewCounter registers and returns an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// FloatCounter is a monotonically increasing float value, for counters
// that accumulate fractional quantities (e.g. seconds spent degraded).
// All methods are safe for concurrent use.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v. Negative deltas are a programming error and are
// ignored to keep the series monotone.
func (c *FloatCounter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *FloatCounter) expose(w io.Writer, name, labelPairs string) {
	writeSampleLine(w, name, labelPairs, formatFloat(c.Value()))
}

// NewFloatCounter registers and returns an unlabelled float counter.
func (r *Registry) NewFloatCounter(name, help string) *FloatCounter {
	f := r.register(name, help, "counter", nil)
	c := &FloatCounter{}
	f.series[""] = c
	return c
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	fam *family
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{fam: r.register(name, help, "counter", labels)}
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: %q expects %d label values, got %d",
			v.fam.name, len(v.fam.labels), len(values)))
	}
	key := renderLabels(v.fam.labels, values)
	return v.fam.get(key, func() sample { return &Counter{} }).(*Counter)
}

// ------------------------------------------------------------------ gauge

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) expose(w io.Writer, name, labelPairs string) {
	writeSampleLine(w, name, labelPairs, strconv.FormatInt(g.v.Load(), 10))
}

// NewGauge registers and returns an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	g := &Gauge{}
	f.series[""] = g
	return g
}

// FloatGauge is a gauge holding a float value, for ratios and other
// fractional instantaneous readings (e.g. shard load skew). All methods
// are safe for concurrent use.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) expose(w io.Writer, name, labelPairs string) {
	writeSampleLine(w, name, labelPairs, formatFloat(g.Value()))
}

// NewFloatGauge registers and returns an unlabelled float gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	f := r.register(name, help, "gauge", nil)
	g := &FloatGauge{}
	f.series[""] = g
	return g
}

// -------------------------------------------------------------- histogram

// Histogram samples observations into fixed cumulative buckets, tracking
// the total sum and count. Observations and exposition are lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefBuckets covers request latencies from 5ms to 60s; the wide tail
// suits mining jobs, whose server-side ceiling defaults to 60s.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the q-th observation — a deliberately conservative
// (upper) estimate. It returns 0 with no observations, and the largest
// finite bound when the quantile lands in the +Inf bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) expose(w io.Writer, name, labelPairs string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := `le="` + formatFloat(b) + `"`
		if labelPairs != "" {
			le = labelPairs + "," + le
		}
		writeSampleLine(w, name+"_bucket", le, formatUint(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	le := `le="+Inf"`
	if labelPairs != "" {
		le = labelPairs + "," + le
	}
	writeSampleLine(w, name+"_bucket", le, formatUint(cum))
	writeSampleLine(w, name+"_sum", labelPairs, formatFloat(h.Sum()))
	writeSampleLine(w, name+"_count", labelPairs, formatUint(cum))
}

// NewHistogram registers an unlabelled histogram. buckets are ascending
// upper bounds (+Inf is implicit); nil selects DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	h := newHistogram(buckets)
	f.series[""] = h
	return h
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	fam     *family
	buckets []float64
}

// NewHistogramVec registers a histogram family with the given label
// names; nil buckets selects DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs at least one label", name))
	}
	return &HistogramVec{
		fam:     r.register(name, help, "histogram", labels),
		buckets: buckets,
	}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: %q expects %d label values, got %d",
			v.fam.name, len(v.fam.labels), len(values)))
	}
	key := renderLabels(v.fam.labels, values)
	return v.fam.get(key, func() sample { return newHistogram(v.buckets) }).(*Histogram)
}

// ------------------------------------------------------------- exposition

// WritePrometheus renders every registered family in the Prometheus text
// format, families in registration order, series within a family in
// sorted label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.mtype)
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].expose(&b, f.name, k)
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry in the Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func writeSampleLine(w io.Writer, name, labelPairs, value string) {
	if labelPairs == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labelPairs, value)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
