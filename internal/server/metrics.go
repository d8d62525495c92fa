package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/obs"
)

// serverMetrics is the server's instrumentation surface, all registered
// on one obs.Registry served at GET /v1/metrics. Four groups:
//
//   - tpmd_http_*: per-route request counters and latency histograms
//     recorded by the middleware for every request — labelled by route
//     pattern and API version (v1 vs legacy alias) — plus in-flight and
//     backpressure (429) counters.
//   - tpmd_cache_*: the mine-result cache — hits, misses, coalesced
//     (single-flight) waiters, evictions, and resident bytes.
//   - tpmd_mine_*: mining-job telemetry — runs by type and outcome,
//     truncations by cause, deadline aborts, and the job-duration
//     histogram that also drives the 429 Retry-After hint.
//   - tpmd_miner_*: the search's own counters aggregated across runs —
//     nodes, candidate scans, and the paper's P1–P4 prunings.
//   - tpmd_persist_*: the durability subsystem — WAL size and appended
//     records, fsyncs, snapshot count/duration, and the boot-time
//     recovery outcome (duration, records replayed, torn-tail
//     truncations). All zero when the server runs without persistence.
//   - tpmd_blob_*: the storage backend beneath persistence — operations,
//     payload bytes, and errors by backend kind (file, mem) and
//     operation (put, get, append_write, sync, ...). All zero when the
//     server runs without persistence.
//   - tpmd_resilience_*: the fault-handling layer — persistence retries
//     by operation, circuit-breaker state/trips, recovery probes by
//     outcome, requests shed by deadline-aware admission, and total
//     seconds spent in read-only degraded mode.
//   - tpmd_shard_*: sharded mining — fan-outs issued, per-shard mine
//     duration, the most recent partition's load-skew ratio, and
//     patterns merged / support-completed at the coordinator. All zero
//     when datasets hold a single shard.
//   - tpmd_remote_*: the distributed deployment — worker RPCs by
//     operation and outcome with latency, wire bytes by direction,
//     retries, local failovers, registry health (healthy vs configured
//     workers), and shard pushes with their compressed bytes. All zero
//     when the server runs without -workers.
//   - tpmd_job_* / tpmd_sse_*: continuous mining — resident job count,
//     runs by outcome and their duration, delta events published, live
//     SSE subscribers, events fanned out to them, and slow consumers
//     dropped.
//   - tpmd_ingest_*: streaming ingestion — events accepted, batches
//     flushed into versioned appends, and events rejected (buffer
//     overflow while the store was unavailable, or dropped at
//     shutdown).
type serverMetrics struct {
	reqTotal  *obs.CounterVec // route, api, class
	reqDur    *obs.HistogramVec
	reqBytes  *obs.CounterVec
	inFlight  *obs.Gauge
	throttled *obs.Counter

	cache *cacheMetrics

	mineRuns      *obs.CounterVec // type, outcome
	mineTruncated *obs.CounterVec // cause
	mineDeadline  *obs.Counter
	mineDur       *obs.Histogram

	minerNodes   *obs.Counter
	minerScans   *obs.Counter
	minerEmitted *obs.Counter
	minerPruned  *obs.CounterVec // technique: p1..p4

	persist    *persistMetrics
	resilience *resilienceMetrics
	shard      *shardMetrics
	remote     *remoteMetrics
	jobs       *jobsMetrics

	ingestEvents   *obs.Counter
	ingestBatches  *obs.Counter
	ingestRejected *obs.Counter
}

// jobsMetrics adapts the obs registry to the jobs.Metrics interface;
// the manager calls it from run loops and the publish path, so every
// method is a handful of atomic updates.
type jobsMetrics struct {
	count      *obs.Gauge
	runs       *obs.CounterVec // outcome
	runDur     *obs.Histogram
	events     *obs.Counter
	sseSubs    *obs.Gauge
	sseSent    *obs.Counter
	sseDropped *obs.Counter
}

func (m *jobsMetrics) JobCount(n int) { m.count.Set(int64(n)) }
func (m *jobsMetrics) RunDone(outcome string, d time.Duration) {
	m.runs.With(outcome).Inc()
	m.runDur.Observe(d.Seconds())
}
func (m *jobsMetrics) EventPublished(subscribers int) {
	m.events.Inc()
	m.sseSent.Add(uint64(subscribers))
}
func (m *jobsMetrics) SubscriberChange(delta int) {
	if delta >= 0 {
		for i := 0; i < delta; i++ {
			m.sseSubs.Inc()
		}
		return
	}
	for i := 0; i < -delta; i++ {
		m.sseSubs.Dec()
	}
}
func (m *jobsMetrics) SubscriberDropped() { m.sseDropped.Inc() }

// shardMetrics adapts the obs registry to the shard.Metrics interface;
// the coordinator calls it once per fan-out / shard completion / merge,
// so every method is a handful of atomic updates.
type shardMetrics struct {
	fanouts  *obs.Counter
	shardDur *obs.HistogramVec // shard
	skew     *obs.FloatGauge
	merged   *obs.Counter
	counted  *obs.Counter
}

func (m *shardMetrics) FanOut(shards int) { m.fanouts.Inc() }
func (m *shardMetrics) ShardDone(shard int, d time.Duration) {
	m.shardDur.With(strconv.Itoa(shard)).Observe(d.Seconds())
}
func (m *shardMetrics) Merged(patterns, counted int) {
	m.merged.Add(uint64(patterns))
	m.counted.Add(uint64(counted))
}

// remoteMetrics adapts the obs registry to the remote.Metrics interface;
// the worker-pool client calls it per RPC, retry, and failover. All
// zero when the server runs without -workers.
type remoteMetrics struct {
	rpcs        *obs.CounterVec // op, outcome
	rpcDur      *obs.HistogramVec
	bytes       *obs.CounterVec // op, dir
	retries     *obs.CounterVec // op
	failovers   *obs.Counter
	workerUp    *obs.Gauge
	workerTotal *obs.Gauge
	pushes      *obs.Counter
	pushBytes   *obs.Counter
}

func (m *remoteMetrics) RPC(op string, d time.Duration, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	m.rpcs.With(op, outcome).Inc()
	m.rpcDur.With(op).Observe(d.Seconds())
}
func (m *remoteMetrics) Bytes(op, dir string, n int64) { m.bytes.With(op, dir).Add(uint64(n)) }
func (m *remoteMetrics) Retry(op string)               { m.retries.With(op).Inc() }
func (m *remoteMetrics) Failover()                     { m.failovers.Inc() }
func (m *remoteMetrics) WorkerUp(healthy, total int) {
	m.workerUp.Set(int64(healthy))
	m.workerTotal.Set(int64(total))
}
func (m *remoteMetrics) ShardPush(n int64) {
	m.pushes.Inc()
	m.pushBytes.Add(uint64(n))
}

// resilienceMetrics covers the fault-handling layer: retrying persistence
// I/O, the circuit breaker guarding it, and the admission controller.
type resilienceMetrics struct {
	retries         *obs.CounterVec // op
	breakerState    *obs.Gauge      // 0 closed, 1 open, 2 half-open
	breakerTrips    *obs.Counter
	probes          *obs.CounterVec // outcome: ok, fail
	shed            *obs.Counter
	degradedSeconds *obs.FloatCounter
}

// persistMetrics adapts the obs registry to the persist.Metrics
// interface; internal/persist calls it from the WAL hot path, so every
// method is one atomic update.
type persistMetrics struct {
	walBytes    *obs.Gauge
	records     *obs.Counter
	fsyncs      *obs.Counter
	snapshots   *obs.Counter
	snapDur     *obs.Histogram
	recovDur    *obs.Histogram
	replayed    *obs.Gauge
	truncations *obs.Counter
	retries     *obs.CounterVec // shared with resilienceMetrics.retries
	blobOps     *obs.CounterVec // backend, op
	blobBytes   *obs.CounterVec // backend, op
	blobErrs    *obs.CounterVec // backend, op
}

func (m *persistMetrics) WALBytes(n int64) { m.walBytes.Set(n) }
func (m *persistMetrics) RecordAppended()  { m.records.Inc() }
func (m *persistMetrics) FsyncDone()       { m.fsyncs.Inc() }
func (m *persistMetrics) SnapshotDone(d time.Duration) {
	m.snapshots.Inc()
	m.snapDur.Observe(d.Seconds())
}
func (m *persistMetrics) RecoveryDone(d time.Duration, recordsReplayed, truncations int) {
	m.recovDur.Observe(d.Seconds())
	m.replayed.Set(int64(recordsReplayed))
	m.truncations.Add(uint64(truncations))
}
func (m *persistMetrics) RetryDone(op string) { m.retries.With(op).Inc() }
func (m *persistMetrics) BlobOp(backend, op string, n int, err error) {
	m.blobOps.With(backend, op).Inc()
	if n > 0 {
		m.blobBytes.With(backend, op).Add(uint64(n))
	}
	if err != nil {
		m.blobErrs.With(backend, op).Inc()
	}
}

// cacheMetrics adapts the obs registry to the cache.Metrics interface.
type cacheMetrics struct {
	hits         *obs.Counter
	misses       *obs.Counter
	coalesced    *obs.Counter
	evictions    *obs.Counter
	resident     *obs.Gauge
	degradedHits *obs.Counter
}

func (m *cacheMetrics) Hit()             { m.hits.Inc() }
func (m *cacheMetrics) Miss()            { m.misses.Inc() }
func (m *cacheMetrics) Coalesced()       { m.coalesced.Inc() }
func (m *cacheMetrics) Evicted()         { m.evictions.Inc() }
func (m *cacheMetrics) Resident(b int64) { m.resident.Set(b) }
func (m *cacheMetrics) DegradedHit()     { m.degradedHits.Inc() }

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reqTotal: reg.NewCounterVec("tpmd_http_requests_total",
			"HTTP requests served, by route, API version, and status class.", "route", "api", "class"),
		reqDur: reg.NewHistogramVec("tpmd_http_request_duration_seconds",
			"HTTP request latency by route and API version.", nil, "route", "api"),
		reqBytes: reg.NewCounterVec("tpmd_http_response_bytes_total",
			"Response body bytes written, by route and API version.", "route", "api"),
		inFlight: reg.NewGauge("tpmd_http_requests_in_flight",
			"Requests currently being handled."),
		throttled: reg.NewCounter("tpmd_http_throttled_total",
			"Requests rejected with 429 because every mining slot was busy."),

		cache: &cacheMetrics{
			hits: reg.NewCounter("tpmd_cache_hits_total",
				"Mine/rules requests served from the result cache."),
			misses: reg.NewCounter("tpmd_cache_misses_total",
				"Mine/rules requests that ran the miner (cache miss)."),
			coalesced: reg.NewCounter("tpmd_cache_coalesced_total",
				"Mine/rules requests that shared a concurrent identical run via single-flight."),
			evictions: reg.NewCounter("tpmd_cache_evictions_total",
				"Result-cache entries evicted to stay within the byte budget."),
			resident: reg.NewGauge("tpmd_cache_resident_bytes",
				"Approximate bytes of mine/rules results currently cached."),
			degradedHits: reg.NewCounter("tpmd_cache_degraded_hits_total",
				"Cache hits served while persistence was degraded (read-only mode)."),
		},

		mineRuns: reg.NewCounterVec("tpmd_mine_runs_total",
			"Mining jobs by pattern type and outcome (ok, truncated, deadline, canceled, invalid).",
			"type", "outcome"),
		mineTruncated: reg.NewCounterVec("tpmd_mine_truncated_total",
			"Mining jobs cut short by a soft budget, by cause.", "cause"),
		mineDeadline: reg.NewCounter("tpmd_mine_deadline_aborts_total",
			"Mining jobs aborted by the hard deadline (504s)."),
		mineDur: reg.NewHistogram("tpmd_mine_duration_seconds",
			"Mining job wall time; the recent shape of this histogram drives the 429 Retry-After hint.", nil),

		minerNodes: reg.NewCounter("tpmd_miner_nodes_total",
			"Search-tree nodes explored across all mining runs."),
		minerScans: reg.NewCounter("tpmd_miner_candidate_scans_total",
			"Projected-sequence scans performed while counting extension candidates."),
		minerEmitted: reg.NewCounter("tpmd_miner_patterns_emitted_total",
			"Patterns emitted by the search before normalization/merging."),
		minerPruned: reg.NewCounterVec("tpmd_miner_pruned_total",
			"Search space cut by the paper's pruning techniques: p1 items removed, p2 pairs, p3 postfixes, p4 undersized projections.",
			"technique"),

		persist: &persistMetrics{
			walBytes: reg.NewGauge("tpmd_persist_wal_bytes",
				"Size of the live write-ahead-log segment."),
			records: reg.NewCounter("tpmd_persist_wal_records_total",
				"Mutation records committed to the write-ahead log."),
			fsyncs: reg.NewCounter("tpmd_persist_fsyncs_total",
				"fsync calls issued on the write-ahead log."),
			snapshots: reg.NewCounter("tpmd_persist_snapshots_total",
				"Snapshots cut (compaction and shutdown)."),
			snapDur: reg.NewHistogram("tpmd_persist_snapshot_duration_seconds",
				"Wall time to write one snapshot.", nil),
			recovDur: reg.NewHistogram("tpmd_persist_recovery_duration_seconds",
				"Wall time of boot-time recovery (snapshot load + WAL replay).", nil),
			replayed: reg.NewGauge("tpmd_persist_recovery_records_replayed",
				"WAL records replayed on top of the snapshot at the last boot."),
			truncations: reg.NewCounter("tpmd_persist_torn_tail_truncations_total",
				"WAL logs cut short at a torn or corrupt frame during recovery."),
			blobOps: reg.NewCounterVec("tpmd_blob_ops_total",
				"Blob-store operations issued by persistence, by backend kind and operation.", "backend", "op"),
			blobBytes: reg.NewCounterVec("tpmd_blob_bytes_total",
				"Payload bytes moved through the blob store, by backend kind and operation.", "backend", "op"),
			blobErrs: reg.NewCounterVec("tpmd_blob_errors_total",
				"Blob-store operations that returned an error, by backend kind and operation.", "backend", "op"),
		},

		resilience: &resilienceMetrics{
			retries: reg.NewCounterVec("tpmd_resilience_retries_total",
				"Persistence I/O retries after a transient failure, by operation.", "op"),
			breakerState: reg.NewGauge("tpmd_resilience_breaker_state",
				"Persistence circuit-breaker state: 0 closed (healthy), 1 open (degraded), 2 half-open (probing)."),
			breakerTrips: reg.NewCounter("tpmd_resilience_breaker_trips_total",
				"Times the persistence circuit breaker tripped open, entering read-only degraded mode."),
			probes: reg.NewCounterVec("tpmd_resilience_probes_total",
				"Background recovery probes while degraded, by outcome (ok, fail).", "outcome"),
			shed: reg.NewCounter("tpmd_resilience_shed_total",
				"Mine/rules requests shed by deadline-aware admission: their deadline would expire before a slot could free up."),
			degradedSeconds: reg.NewFloatCounter("tpmd_resilience_degraded_seconds_total",
				"Total seconds spent in read-only degraded mode (breaker open or probing)."),
		},

		shard: &shardMetrics{
			fanouts: reg.NewCounter("tpmd_shard_fanout_total",
				"Mine/rules requests fanned out across dataset shards."),
			shardDur: reg.NewHistogramVec("tpmd_shard_mine_duration_seconds",
				"Per-shard mining wall time within a fan-out, by shard index.", nil, "shard"),
			skew: reg.NewFloatGauge("tpmd_shard_skew_ratio",
				"Max/min shard interval-load ratio of the most recently (re)computed partition."),
			merged: reg.NewCounter("tpmd_shard_merged_patterns_total",
				"Patterns produced by coordinator merges of per-shard results."),
			counted: reg.NewCounter("tpmd_shard_counted_patterns_total",
				"Patterns whose support was completed via a per-shard Count round because some shard missed them locally."),
		},
		remote: &remoteMetrics{
			rpcs: reg.NewCounterVec("tpmd_remote_rpcs_total",
				"Remote worker RPCs completed (after retries), by operation and outcome.", "op", "outcome"),
			rpcDur: reg.NewHistogramVec("tpmd_remote_rpc_duration_seconds",
				"Remote worker RPC wall time (including retries within one call), by operation.", nil, "op"),
			bytes: reg.NewCounterVec("tpmd_remote_bytes_total",
				"Wire bytes moved to/from remote workers, by operation and direction.", "op", "dir"),
			retries: reg.NewCounterVec("tpmd_remote_retries_total",
				"Remote RPC attempts retried after a transient failure, by operation.", "op"),
			failovers: reg.NewCounter("tpmd_remote_failovers_total",
				"Shards re-mined on the in-process fallback after their remote worker became unavailable."),
			workerUp: reg.NewGauge("tpmd_remote_worker_up",
				"Remote workers currently considered healthy by the registry."),
			workerTotal: reg.NewGauge("tpmd_remote_worker_total",
				"Remote workers configured via -workers."),
			pushes: reg.NewCounter("tpmd_remote_shard_pushes_total",
				"Shard payloads pushed to remote workers (one per worker x dataset version x shard)."),
			pushBytes: reg.NewCounter("tpmd_remote_shard_push_bytes_total",
				"Compressed shard payload bytes pushed to remote workers."),
		},
		jobs: &jobsMetrics{
			count: reg.NewGauge("tpmd_job_count",
				"Continuous-mining jobs currently resident."),
			runs: reg.NewCounterVec("tpmd_job_runs_total",
				"Continuous-mining job runs, by outcome (ok, noop, error).", "outcome"),
			runDur: reg.NewHistogram("tpmd_job_run_duration_seconds",
				"Wall time of one continuous-mining job run (mine + diff + publish).", nil),
			events: reg.NewCounter("tpmd_job_events_published_total",
				"Delta/result events published by job runs."),
			sseSubs: reg.NewGauge("tpmd_sse_subscribers",
				"SSE subscribers currently connected across all jobs."),
			sseSent: reg.NewCounter("tpmd_sse_events_sent_total",
				"Events enqueued to SSE subscribers (one per event per subscriber)."),
			sseDropped: reg.NewCounter("tpmd_sse_dropped_total",
				"SSE subscribers disconnected for not draining their event queue."),
		},

		ingestEvents: reg.NewCounter("tpmd_ingest_events_total",
			"Event intervals flushed into versioned dataset appends by streaming ingestion."),
		ingestBatches: reg.NewCounter("tpmd_ingest_batches_total",
			"Ingest batches flushed (by count, by age, or at shutdown)."),
		ingestRejected: reg.NewCounter("tpmd_ingest_rejected_total",
			"Buffered ingest events dropped because the store stayed unavailable or the server shut down."),
	}
	// internal/persist reports retries through the persist.Metrics
	// interface, but the series lives in the resilience family.
	m.persist.retries = m.resilience.retries
	return m
}

// recordMinerStats folds one finished run's search counters into the
// cumulative miner metrics.
func (m *serverMetrics) recordMinerStats(st core.Stats) {
	m.minerNodes.Add(uint64(st.Nodes))
	m.minerScans.Add(uint64(st.CandidateScans))
	m.minerEmitted.Add(uint64(st.Emitted))
	m.minerPruned.With("p1").Add(uint64(st.ItemsRemoved))
	m.minerPruned.With("p2").Add(uint64(st.PairPruned))
	m.minerPruned.With("p3").Add(uint64(st.PostfixPruned))
	m.minerPruned.With("p4").Add(uint64(st.SizePruned))
}

// apiLabel reports which API surface served the request: "v1" for the
// versioned routes, "legacy" for the deprecated unversioned aliases.
func apiLabel(r *http.Request) string {
	if isV1(r) {
		return "v1"
	}
	return "legacy"
}

// routeLabel maps a request path onto its route pattern so metric
// cardinality stays bounded no matter what dataset names clients send.
// The /v1 prefix is stripped — the API version is its own label — so a
// route's time series stay comparable across versions.
func routeLabel(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1")
	switch p {
	case "/healthz", "/readyz", "/metrics", "/datasets", "/routes", "/jobs":
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/datasets/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch suffix := rest[i:]; suffix {
			case "/mine", "/rules", "/append", "/events", "/shards":
				return "/datasets/{name}" + suffix
			}
			return "other"
		}
		return "/datasets/{name}"
	}
	if rest, ok := strings.CutPrefix(p, "/jobs/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch suffix := rest[i:]; suffix {
			case "/result", "/events":
				return "/jobs/{id}" + suffix
			}
			return "other"
		}
		return "/jobs/{id}"
	}
	return "other"
}

// statusClass buckets a status code into "2xx".."5xx" for the low-
// cardinality class label.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// statusWriter records the status code and body bytes a handler wrote,
// so the middleware can label metrics and logs after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the metrics middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
