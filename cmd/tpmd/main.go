// Command tpmd runs the mining HTTP service.
//
//	tpmd -addr :8080 -max-mines 8 -mine-timeout 30s
//
// Endpoints, all under /v1 (see internal/server for the full API; the
// unversioned paths remain as deprecated aliases):
//
//	PUT    /v1/datasets/{name}         upload a dataset (csv/lines/json body)
//	POST   /v1/datasets/{name}/events  stream NDJSON event intervals (batched appends)
//	POST   /v1/datasets/{name}/mine    mine patterns; mode temporal, coincidence, or rules
//	POST   /v1/jobs                    create a continuous-mining job
//	GET    /v1/jobs/{id}/events        job delta stream (Server-Sent Events)
//	GET    /v1/routes                  the machine-readable route table
//
// Streaming: -ingest-flush-count and -ingest-flush-age bound how many
// events (and how long) the ingest route buffers before flushing a
// versioned append. Continuous-mining jobs re-mine a dataset when it
// changes (debounced by -job-debounce or the job's debounce_ms) and
// publish pattern deltas over SSE; -sse-queue bounds each subscriber's
// event queue (slow consumers are dropped, not allowed to stall the
// job) and -sse-heartbeat paces keep-alive comments. Jobs and their
// latest results are journaled with the datasets, so with persistence
// on they survive restarts.
//
// The server is resource-bounded: -max-mines caps concurrent mining
// jobs (excess requests get 429), -mine-timeout is the hard per-job
// deadline (requests may lower it via timeout_ms), and -max-body caps
// request bodies. On SIGINT or SIGTERM the server stops accepting
// connections and drains in-flight requests — mining jobs finish within
// their deadline — for up to -grace before exiting.
//
// Sharded mining: -shards partitions each dataset into that many
// size-balanced sequence shards (0 = GOMAXPROCS, 1 = unsharded) and
// mines them scatter-gather with an exact merge, so responses, cache
// keys, and ETags are byte-identical to unsharded mining.
// -shard-min-seqs keeps small datasets on fewer shards (no fan-out
// overhead below ~16 sequences per shard by default). Per-shard
// timings, fan-out counts, and partition skew appear as tpmd_shard_*
// metrics.
//
// Distributed mining: -role=worker turns the process into a mining
// worker — it serves only /v1/worker/* (shard push, mine, count,
// health) and holds no datasets of its own. A -role=server process
// given -workers=http://w1:9090,http://w2:9090 scatters the shards of
// whole-dataset mines across those workers: each shard's sub-database
// is pushed once per dataset version (content-addressed, gzip wire
// encoding), mined remotely, and merged exactly as in-process sharding
// would — an unreachable worker's shard is transparently re-mined
// locally, so results, ETags, and cache keys never change. Worker
// health is probed every -worker-probe-interval and reported on
// GET /v1/readyz; per-dataset placement appears on
// GET /v1/datasets/{name}/shards and traffic as tpmd_remote_* metrics.
//
// Complete mine/rules results are memoized in a byte-budgeted LRU and
// concurrent identical requests collapse into one miner run
// (single-flight); -cache-budget sizes the cache and -no-cache disables
// both. Responses carry strong ETags and honor If-None-Match with 304.
//
// Durability: with -data-dir (or -store-url) the datasets survive
// restarts. Every mutation (PUT, append, DELETE) commits to a
// CRC32C-checksummed write-ahead log before it is acknowledged; once
// the log passes -wal-max-bytes the server cuts a snapshot and
// compacts. On boot the newest valid snapshot is loaded and the WAL
// tail replayed (a torn final record — the signature of a crash
// mid-write — is truncated away), restoring dataset contents, versions,
// and ETag continuity. -fsync picks the durability/latency trade-off:
// always (fsync per record), interval (background flush every 100ms),
// never (OS decides). Without either flag the server is purely
// in-memory, as before.
//
// Storage backends: persistence does all its I/O through a pluggable
// blob store (internal/blob). -store-url selects the backend by URL —
// file:///var/lib/tpmd for the classic directory layout (-data-dir X is
// shorthand for -store-url file://X), mem://name for ephemeral
// process-shared storage (durability semantics without disk; data dies
// with the process no matter what -fsync says). When both flags are
// set, -store-url wins. -inspect-wal <dir-or-url> dumps a store's
// record headers and flags the first corrupt frame, then exits.
//
// Fault tolerance: transient journal I/O errors are retried with
// jittered backoff; repeated or permanent failures (disk full,
// read-only filesystem) trip a circuit breaker and the server degrades
// to read-only — mutations get 503 "degraded" with Retry-After while
// reads and mining keep serving — until a background probe (every
// -probe-interval) proves the disk healthy again and restores
// read-write automatically. -breaker-threshold tunes the trip point.
// GET /v1/healthz stays 200 and reports the mode; GET /v1/readyz
// returns 503 while degraded so load balancers can drain writes.
// -fault-profile (with -fault-seed) injects persistence faults for
// chaos drills; never use it in production.
//
// Observability: GET /v1/metrics serves Prometheus text exposition
// (request, cache, mining-job, miner-search, and persistence counters;
// see internal/server). Logs are structured via log/slog; -log-format
// selects text or json and -log-level sets the minimum level.
//
// For live profiling, -pprof-addr starts a second listener serving
// net/http/pprof (e.g. -pprof-addr localhost:6060). It is off by
// default and should never be exposed publicly.
//
// Example session:
//
//	go run ./cmd/datagen -dataset patient -size 200 -q | \
//	    curl -sS -X PUT --data-binary @- -H 'Content-Type: text/csv' \
//	         localhost:8080/v1/datasets/patients
//	curl -sS localhost:8080/v1/datasets/patients/mine \
//	     -d '{"min_support":0.15,"max_intervals":3}' | jq .
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux, served only by -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tpminer/internal/blob"
	"tpminer/internal/obs"
	"tpminer/internal/persist"
	"tpminer/internal/remote"
	"tpminer/internal/resilience"
	"tpminer/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tpmd:", err)
		os.Exit(1)
	}
}

// runWorker serves the worker role: the /v1/worker/* surface (shard
// push, mine, count, health, metrics) with the same graceful drain as
// the server role. Workers hold only pushed shard payloads — all state
// is re-pushable — so a worker restart costs one re-push per shard,
// never data.
func runWorker(addr string, mineTimeout, grace time.Duration, logger *slog.Logger) error {
	ws := remote.NewWorkerServer(remote.WorkerConfig{Logger: logger, MineTimeout: mineTimeout})
	srv := &http.Server{
		Addr:              addr,
		Handler:           ws.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("worker listening", "addr", addr)
		errc <- srv.ListenAndServe()
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("signal received, draining worker requests", "grace", grace.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Info("worker drained, exiting")
		return nil
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tpmd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxMines := fs.Int("max-mines", 0, "max concurrent mining jobs (0 = GOMAXPROCS); excess requests get 429")
	mineTimeout := fs.Duration("mine-timeout", server.DefaultMaxMineDuration, "hard per-job mining deadline")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
	cacheBudget := fs.Int64("cache-budget", server.DefaultCacheBudgetBytes, "byte budget for the mine-result cache")
	noCache := fs.Bool("no-cache", false, "disable result caching and single-flight request coalescing")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace period for draining in-flight requests")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it loopback-only)")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	dataDir := fs.String("data-dir", "", "directory for the dataset WAL and snapshots (empty = in-memory only); shorthand for -store-url file://<dir>")
	storeURL := fs.String("store-url", "", "blob-store URL for persistence, e.g. file:///var/lib/tpmd or mem://scratch (overrides -data-dir)")
	fsyncMode := fs.String("fsync", persist.FsyncAlways, "WAL fsync policy with persistence: always, interval, or never")
	walMaxBytes := fs.Int64("wal-max-bytes", persist.DefaultWALMaxBytes, "WAL size that triggers snapshot + compaction")
	inspectWAL := fs.String("inspect-wal", "", "dump the WAL/snapshot record headers in this data dir (or store URL) and exit")
	probeInterval := fs.Duration("probe-interval", time.Second, "how often a degraded server probes persistence for recovery")
	breakerThreshold := fs.Int("breaker-threshold", 0, "weighted persistence-failure score that trips the breaker into read-only mode (0 = default)")
	faultProfile := fs.String("fault-profile", "", "DEV ONLY: inject persistence faults, e.g. 'wal_write:eio:0.1,snapshot_sync:latency:0.5:20ms'")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the -fault-profile randomness (deterministic per seed)")
	role := fs.String("role", "server", "process role: server (the full API) or worker (a mining worker serving /v1/worker/*)")
	workers := fs.String("workers", "", "comma-separated worker base URLs to distribute shard mining across, e.g. http://w1:9090,http://w2:9090 (server role only)")
	workerProbe := fs.Duration("worker-probe-interval", 0, "worker health-probe cadence (0 = built-in default)")
	shards := fs.Int("shards", 0, "mining shards per dataset (0 = GOMAXPROCS, 1 = unsharded); results are identical either way")
	shardMinSeqs := fs.Int("shard-min-seqs", server.DefaultShardMinSeqs, "minimum average sequences per shard; caps the shard count on small datasets")
	ingestFlushCount := fs.Int("ingest-flush-count", server.DefaultIngestFlushCount, "buffered ingest events that trigger an inline flush into a versioned append")
	ingestFlushAge := fs.Duration("ingest-flush-age", server.DefaultIngestFlushAge, "max age of a buffered ingest event before a timer flush")
	jobDebounce := fs.Duration("job-debounce", 0, "default debounce between a dataset change and a job re-mine (0 = built-in default; jobs may override per-spec)")
	sseQueue := fs.Int("sse-queue", 0, "per-subscriber SSE event queue; a subscriber that falls this far behind is dropped (0 = built-in default)")
	sseHeartbeat := fs.Duration("sse-heartbeat", server.DefaultSSEHeartbeat, "interval between SSE heartbeat comments on idle job streams")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspectWAL != "" {
		if strings.Contains(*inspectWAL, "://") {
			bs, err := blob.NewStore(*inspectWAL)
			if err != nil {
				return err
			}
			defer bs.Close()
			return persist.InspectStore(bs, *inspectWAL, os.Stdout)
		}
		return persist.Inspect(*inspectWAL, os.Stdout)
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	switch *role {
	case "server":
	case "worker":
		return runWorker(*addr, *mineTimeout, *grace, logger)
	default:
		return fmt.Errorf("-role: unknown role %q (want server or worker)", *role)
	}
	var workerList []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workerList = append(workerList, w)
		}
	}
	budget := *cacheBudget
	if *noCache || budget <= 0 {
		budget = -1
	}
	var injector resilience.Injector
	if *faultProfile != "" {
		prof, err := resilience.ParseProfile(*faultProfile, *faultSeed)
		if err != nil {
			return fmt.Errorf("-fault-profile: %w", err)
		}
		injector = prof
		logger.Warn("FAULT INJECTION ACTIVE: persistence I/O will fail on purpose; never use -fault-profile in production",
			"profile", *faultProfile, "seed", *faultSeed)
	}
	// -store-url names the persistence backend directly; -data-dir is
	// shorthand for file://<dir>. Explicit URL wins when both are set.
	url := *storeURL
	if url == "" && *dataDir != "" {
		url = "file://" + *dataDir
	}
	if *storeURL != "" && *dataDir != "" {
		logger.Warn("both -store-url and -data-dir set; using -store-url", "store_url", *storeURL, "data_dir", *dataDir)
	}
	var pstore *persist.Store
	if url != "" {
		pstore, err = persist.OpenURL(url, persist.Options{
			FsyncMode:   *fsyncMode,
			WALMaxBytes: *walMaxBytes,
			Logger:      logger,
			Injector:    injector,
		})
		if err != nil {
			return err
		}
	}
	// closePersist flushes and fsyncs the WAL and cuts a final snapshot;
	// it must run after the HTTP drain so every acknowledged mutation is
	// on disk before the process exits.
	closePersist := func() {
		if pstore == nil {
			return
		}
		if err := pstore.Close(); err != nil {
			logger.Error("persist close failed", "error", err)
			return
		}
		logger.Info("persist flushed and snapshotted", "store", url)
	}
	svc := server.NewWithConfig(logger, server.Config{
		MaxConcurrentMines:      *maxMines,
		MaxMineDuration:         *mineTimeout,
		MaxBodyBytes:            *maxBody,
		CacheBudgetBytes:        budget,
		Persist:                 pstore,
		BreakerFailureThreshold: *breakerThreshold,
		RecoveryProbeInterval:   *probeInterval,
		Shards:                  *shards,
		ShardMinSeqs:            *shardMinSeqs,
		IngestFlushCount:        *ingestFlushCount,
		IngestFlushAge:          *ingestFlushAge,
		JobDebounce:             *jobDebounce,
		SSESubscriberQueue:      *sseQueue,
		SSEHeartbeat:            *sseHeartbeat,
		Workers:                 workerList,
		WorkerProbeInterval:     *workerProbe,
	})
	// Stop the background recovery prober before the persist store is
	// closed underneath it.
	defer svc.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	// The pprof listener is separate from the API listener so the
	// profiling surface is never reachable through the public address.
	// It dies with the process; no graceful drain needed.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "error", err)
			}
		}()
	}

	// SIGTERM is what container orchestrators send; treat it exactly
	// like Ctrl-C so both get a graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		closePersist()
		return err
	case <-ctx.Done():
		logger.Info("signal received, draining in-flight requests", "grace", grace.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Even a botched drain must not lose acknowledged
			// mutations: flush the WAL before reporting the failure.
			closePersist()
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			closePersist()
			return err
		}
		closePersist()
		logger.Info("drained, exiting")
		return nil
	}
}
