// Command perfbench is the end-to-end benchmark of tpmd. It runs the
// server in-process behind a real loopback listener
// (server.NewWithConfig + httptest.NewServer) with tpmd's default
// Config — only deployment settings are set: the persistence store URL
// and fsync policy, and worker addresses — and drives it over HTTP from
// this one process with at most two client connections. The server
// receives only generated CSV, NDJSON and JSON bodies.
//
// Usage, from the perfbench directory (a module of its own):
//
//	go run . --workload mine_cold --seed 1 --seconds 20 --trace 0
//
// (perfbench/run.py builds the binary and also prints the steadiness
// report.) The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":612,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run measures untraced, then again with tracing on, and the
// metrics are the per-layer ones (see trace.go). A readable table with
// sample counts goes to standard error. See perfbench/README.md for the
// workloads and the meaning of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A run builds its deployment at least setupMinReps times and goes on
// until the set-ups have taken setupBudget seconds, up to setupMaxReps;
// setup_s is the median, and the last deployment is the one measured.
const (
	setupMinReps = 3
	setupMaxReps = 50
	setupBudget  = 2.0
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"mine_cold":   func(b *bench) error { return runMine(b, false) },
	"mine_remote": func(b *bench) error { return runMine(b, true) },
	"mine_hot":    runHot,
	"ingest_jobs": runIngest,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mine_cold, mine_hot, ingest_jobs, or mine_remote")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 0, "length of one measured phase (required)")
	trace := fs.Int("trace", 0, "1 = also run a traced phase and report per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for temporary stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// A traced run splits its time between the untraced and the traced
	// phase, so that it takes as long as an untraced one.
	dur := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		dur /= 2
	}
	b := &bench{
		name:   *name,
		seed:   *seed,
		dur:    dur,
		trace:  *trace == 1,
		dir:    dir,
		spans:  filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.csv", *name, *seed)),
		e2e:    map[string]metric{},
		layers: map[string]metric{},
		stderr: stderr,
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	metrics := b.e2e
	if b.trace {
		metrics = b.layers
	}
	b.printTable(metrics)
	res := result{
		Correct:   b.mismatches.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a percentile, printed in the table.
	n int
}

// bench is one run: its settings, failure accounting and the metrics
// it reports.
type bench struct {
	name  string
	seed  int64
	dur   time.Duration
	trace bool
	dir   string // scratch directory for stores, removed at exit
	spans string // where the traced phase writes its spans

	attempted  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64

	mu     sync.Mutex
	notes  int // failure reasons printed so far
	e2e    map[string]metric
	layers map[string]metric
	stderr io.Writer
}

// fail counts one failed operation; mismatch also marks the run
// incorrect. The first few reasons are printed.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.note(format, args...)
}

func (b *bench) mismatch(format string, args ...any) {
	b.mismatches.Add(1)
	b.fail("MISMATCH: "+format, args...)
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.notes < 10 {
		b.notes++
		fmt.Fprintf(b.stderr, "perfbench: "+format+"\n", args...)
	}
}

func (b *bench) layer(name, unit string, v float64) {
	b.layers[name] = metric{Value: v, Unit: unit}
}

func (b *bench) printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b.stderr, "%s seed=%d seconds=%v trace=%v attempted=%d failed=%d\n",
		b.name, b.seed, b.dur.Seconds(), b.trace, b.attempted.Load(), b.failed.Load())
	for _, n := range names {
		m := ms[n]
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(b.stderr, "  %-32s %14.4f %-6s%s\n", n, m.Value, m.Unit, samples)
	}
}

// setupTimer collects the set-up durations of the repeated deployments.
type setupTimer []float64

// more reports whether the run should set up once more.
func (s setupTimer) more() bool {
	return len(s) < setupMinReps || (len(s) < setupMaxReps && sum(s) < setupBudget)
}

func (s *setupTimer) time(f func() error) error {
	t0 := time.Now()
	err := f()
	*s = append(*s, time.Since(t0).Seconds())
	return err
}

// liveHeapMB is HeapAlloc after a full collection, in MiB. The second
// collection also empties what sync.Pools kept from before the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// recordE2E stores the end-to-end metrics of the untraced phase. tail is
// the workload's tail percentile. The latency percentiles pool every
// operation of the phase. Throughput is computed per slice of about
// window and the median across slices is reported, so a burst of noise
// on the machine that hits one slice does not move it. The workload
// records live_heap_mb itself (recordHeap).
func (b *bench) recordE2E(setup setupTimer, ph *phase, tail float64, window time.Duration) {
	windows := max(1, int(math.Round(float64(ph.dur)/float64(window))))
	rate := ph.rates(windows)
	b.e2e["setup_s"] = metric{Value: median(setup), Unit: "s", n: len(setup)}
	b.e2e["latency_p50_ms"] = metric{Value: percentile(ph.res, 50), Unit: "ms", n: len(ph.res)}
	b.e2e["latency_tail_ms"] = metric{Value: percentile(ph.res, tail), Unit: "ms", n: len(ph.res)}
	b.e2e["ops_per_s"] = metric{Value: median(rate), Unit: "1/s", n: ph.ops()}
	fmt.Fprintf(b.stderr, "%s: p%v tail; ops/s median of %d windows %s\n",
		b.name, tail, windows, fmtList(rate))
	ph.summarize()
}

// recordHeap stores live_heap_mb, the deployment's share of the live
// heap (see heapShare); stop closes the deployment.
func (b *bench) recordHeap(stop func()) {
	b.e2e["live_heap_mb"] = metric{Value: heapShare(stop), Unit: "MiB"}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// recordOverhead reports the traced phase against the untraced one.
func (b *bench) recordOverhead(plain, traced *phase, spans int) {
	traced.summarize()
	b.layer("trace.overhead_latency_p50_ms", "ms", traced.p50-plain.p50)
	b.layer("trace.overhead_ops_per_s_pct", "%", 100*(traced.rate-plain.rate)/plain.rate)
	b.layer("trace.spans", "count", float64(spans))
}

// phase is one measured run of a workload: per-operation latencies in
// ms, when each operation was due and completed, and the phase's wall
// time.
type phase struct {
	mu      sync.Mutex
	res     []float64 // due → result held by the client: the body read, or the delta
	due     []float64 // seconds after start
	at      []float64 // completion of the response, seconds after start
	start   time.Time
	dur     time.Duration // scheduled length
	elapsed time.Duration // until the last operation completed

	// p50 and rate are set by summarize, which releases the samples.
	p50, rate float64
}

// add records one operation that was due at due; res may be -1 when the
// workload learns it later (ingest_jobs).
func (p *phase) add(due time.Time, res time.Duration) {
	p.mu.Lock()
	if res >= 0 {
		p.res = append(p.res, ms(res))
	}
	p.due = append(p.due, due.Sub(p.start).Seconds())
	p.at = append(p.at, time.Since(p.start).Seconds())
	p.mu.Unlock()
}

func (p *phase) ops() int { return len(p.at) }

// summarize keeps the median latency and the throughput and drops the
// per-operation samples.
func (p *phase) summarize() {
	p.p50 = percentile(p.res, 50)
	p.rate = float64(p.ops()) / p.elapsed.Seconds()
	p.res, p.due, p.at = nil, nil, nil
}

// rates cuts the phase into n equal slices of its scheduled length, the
// last ending when the phase does, and returns the operations completed
// per second in each. An operation counts in every slice its
// due→completion interval overlaps, by the share of the interval that
// falls there, so a slice's rate is not quantized to whole operations.
func (p *phase) rates(n int) []float64 {
	size := p.dur.Seconds() / float64(n)
	bound := func(k int) (lo, hi float64) {
		lo, hi = size*float64(k), size*float64(k+1)
		if k == n-1 {
			hi = p.elapsed.Seconds()
		}
		return lo, hi
	}
	work := make([]float64, n)
	for i, at := range p.at {
		for j := range work {
			lo, hi := bound(j)
			if overlap := min(hi, at) - max(lo, p.due[i]); overlap > 0 {
				work[j] += overlap / (at - p.due[i])
			}
		}
	}
	rates := make([]float64, n)
	for k := range rates {
		lo, hi := bound(k)
		rates[k] = work[k] / (hi - lo)
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
