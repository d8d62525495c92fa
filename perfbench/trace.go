package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced phase gives every timed request a "request" span around
// its HTTP round trip and a sibling "replay" span with the same trace
// ID. Under the replay span the benchmark calls the layer entry points
// that request reached, in order and on the same inputs, each in its
// own child span (replay.go). Spans are recorded from the benchmark's
// own code only; spans inside the program are a later change. They stay
// in memory and are written out as CSV when the run ends.

type span struct {
	trace, id, parent uint32
	name              string
	start, end        int64 // ns since the tracer started
}

type tracer struct {
	t0  time.Time
	ids atomic.Uint32

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64 // per-layer observations by metric name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

func (t *tracer) newTrace() uint32 { return t.ids.Add(1) }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(trace, parent uint32, name string) openSpan {
	return openSpan{t: t, s: span{trace: trace, id: t.ids.Add(1), parent: parent, name: name,
		start: int64(time.Since(t.t0))}}
}

func (o openSpan) end() time.Duration {
	o.s.end = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return time.Duration(o.s.end - o.s.start)
}

// spanAt records a span whose interval was measured by the caller.
func (t *tracer) spanAt(trace, parent uint32, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{trace: trace, id: t.ids.Add(1), parent: parent, name: name,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// timed runs f in a child span and returns its duration.
func (t *tracer) timed(trace, parent uint32, name string, f func()) time.Duration {
	sp := t.begin(trace, parent, name)
	f()
	return sp.end()
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples[name]
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as CSV: trace, span, parent, name, start_us,
// end_us.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,span,parent,name,start_us,end_us")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%.3f,%.3f\n", s.trace, s.id, s.parent, s.name,
			float64(s.start)/1e3, float64(s.end)/1e3)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordLayers computes every per-layer metric from the traced phase:
// span samples, response stats, and the server's own counters diffed
// across the phase. ops is the number of operations the phase
// completed; metrics that do not apply to a workload read 0.
func (b *bench) recordLayers(t *tracer, pd promDiff, ops int) {
	med := func(name string) float64 { return median(t.get(name)) }
	avg := func(name string) float64 { return mean(t.get(name)) }
	perOp := func(v float64) float64 { return ratio(v, float64(ops)) }
	notMetrics := labelNot("route", "/metrics")

	b.layer("server.self_ms", "ms", med("server.self_ms"))
	b.layer("server.response_bytes", "bytes", ratio(
		pd.delta("tpmd_http_response_bytes_total", notMetrics),
		pd.delta("tpmd_http_requests_total", notMetrics)))
	b.layer("server.shed", "count", pd.delta("tpmd_http_throttled_total", nil))
	batches := pd.delta("tpmd_ingest_batches_total", nil)
	b.layer("server.ingest_batches", "count", batches)
	b.layer("server.ingest_events_per_batch", "count", ratio(pd.delta("tpmd_ingest_events_total", nil), batches))
	b.layer("server.ingest_rejected", "count", pd.delta("tpmd_ingest_rejected_total", nil))
	b.layer("server.ingest_ack_p50_ms", "ms", percentile(t.get("server.ingest_ack_ms"), 50))
	b.layer("server.ingest_ack_tail_ms", "ms", percentile(t.get("server.ingest_ack_ms"), 90))

	b.layer("api.spec_us", "us", med("api.spec_us"))

	hits := pd.delta("tpmd_cache_hits_total", nil)
	coalesced := pd.delta("tpmd_cache_coalesced_total", nil)
	b.layer("cache.hit_ratio", "ratio", ratio(hits, hits+coalesced+pd.delta("tpmd_cache_misses_total", nil)))
	b.layer("cache.coalesced", "count", coalesced)
	b.layer("cache.evictions", "count", pd.delta("tpmd_cache_evictions_total", nil))
	b.layer("cache.resident_bytes", "bytes", pd.gauge("tpmd_cache_resident_bytes"))

	b.layer("seqdb.encode_ms", "ms", med("seqdb.encode_ms"))
	b.layer("seqdb.p1_filter_ms", "ms", med("seqdb.p1_filter_ms"))
	b.layer("seqdb.items_removed", "count", avg("seqdb.items_removed"))

	b.layer("core.search_ms", "ms", med("core.search_ms"))
	b.layer("core.filter_ms", "ms", med("core.filter_ms"))
	for _, c := range []string{"nodes", "candidate_scans", "emitted", "pruned", "steals"} {
		b.layer("core."+c, "count", avg("core."+c))
	}

	b.layer("shard.coordinator_ms", "ms", med("shard.coordinator_ms"))
	b.layer("shard.overhead", "ratio", ratio(sum(t.get("shard.coordinator_ms")), sum(t.get("core.mine_ms"))))
	b.layer("shard.slowest_ms", "ms", med("shard.slowest_ms"))
	b.layer("shard.counted_ratio", "ratio", ratio(
		pd.delta("tpmd_shard_counted_patterns_total", nil), pd.delta("tpmd_shard_merged_patterns_total", nil)))

	b.layer("remote.rpc_ms", "ms", pd.histMeanMS("tpmd_remote_rpc_duration_seconds"))
	b.layer("remote.rpcs", "count", perOp(pd.delta("tpmd_remote_rpcs_total", nil)))
	b.layer("remote.bytes", "bytes", perOp(pd.delta("tpmd_remote_bytes_total", nil)))
	b.layer("remote.retries", "count", pd.delta("tpmd_remote_retries_total", nil))
	b.layer("remote.failovers", "count", pd.delta("tpmd_remote_failovers_total", nil))
	// Shards are pushed once per dataset version, during set-up, so the
	// push counters are the deployment's totals rather than the phase's.
	b.layer("remote.pushes", "count", pd.gauge("tpmd_remote_shard_pushes_total"))
	b.layer("remote.push_bytes", "bytes", pd.gauge("tpmd_remote_shard_push_bytes_total"))

	appended := pd.delta("tpmd_blob_bytes_total", label("op", "append_write"))
	b.layer("persist.log_append_ms", "ms", med("persist.log_append_ms"))
	b.layer("persist.fsyncs", "count", perOp(pd.delta("tpmd_persist_fsyncs_total", nil)))
	b.layer("persist.wal_bytes_per_user_byte", "ratio", ratio(appended, sum(t.get("user_bytes"))))
	b.layer("persist.snapshots", "count", pd.delta("tpmd_persist_snapshots_total", nil))
	b.layer("blob.bytes_written", "bytes", perOp(appended+pd.delta("tpmd_blob_bytes_total", label("op", "put"))))

	b.layer("jobs.runs", "count", perOp(pd.delta("tpmd_job_runs_total", label("outcome", "ok"))))
	b.layer("jobs.run_ms", "ms", pd.histMeanMS("tpmd_job_run_duration_seconds"))
	b.layer("jobs.sse_sent", "count", perOp(pd.delta("tpmd_sse_events_sent_total", nil)))
	b.layer("jobs.sse_dropped", "count", pd.delta("tpmd_sse_dropped_total", nil))

	b.layer("gen.late_ms", "ms", percentile(t.get("gen.late_ms"), 95))
}
