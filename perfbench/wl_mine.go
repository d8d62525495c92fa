package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"tpminer/internal/remote"
)

// streamLen bounds a run's spec stream; a run stops early if it is used
// up, which no measured rate comes near.
const streamLen = 5000

// The correctness checks cover a fixed prefix of the stream, which every
// run of the benchmark's length completes, so that their cost does not
// grow as the program gets faster: the seeded sample (about one spec in
// twelve) of the first checkedPrefix specs is compared with the serial
// miner, and on mine_remote the first comparedPrefix bodies with the
// bodies of an all-local deployment.
const (
	checkedPrefix  = 288
	comparedPrefix = 256
)

// remoteWarmSpec is the set-up mine of mine_remote: it pushes the
// shards to the workers. Its cache key is outside every spec stream.
var remoteWarmSpec = []byte(`{"mode":"coincidence","min_support":0.5}`)

// runMine drives mine_cold (remote=false) and mine_remote (remote=true):
// two closed-loop clients walk one seeded stream of distinct specs over
// one dataset version, so every request misses the result cache.
// mine_remote serves the same stream with two in-process remote workers.
func runMine(b *bench, remote bool) error {
	ds, err := makeDataset()
	if err != nil {
		return err
	}
	specs := specStream(b.seed, streamLen)
	opt := deployOptions{}
	if remote {
		opt.workers = 2
	}

	var (
		d     *deployment
		setup setupTimer
	)
	for setup.more() {
		if d != nil {
			d.close()
		}
		if err := setup.time(func() error { d, err = setUpMine(ds, opt); return err }); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer d.close()

	m := &mineRun{b: b, d: d, specs: specs, bodies: map[int][]byte{}, digests: map[int][32]byte{}}
	var before promSnap
	if remote {
		if before, err = d.scrape(); err != nil {
			return err
		}
	}
	plain := m.phase(nil)
	if remote {
		after, err := d.scrape()
		if err != nil {
			return err
		}
		m.checkRemote(promDiff{before, after}, plain.ops())
	}
	b.recordE2E(setup, plain, 95, 5*time.Second)
	if b.trace {
		before, err := d.scrape()
		if err != nil {
			return err
		}
		t := newTracer()
		m.replayer = newMineReplayer(ds.db)
		traced := m.phase(t)
		after, err := d.scrape()
		if err != nil {
			return err
		}
		b.recordLayers(t, promDiff{before, after}, traced.ops())
		b.recordOverhead(plain, traced, t.count())
		if err := t.write(b.spans); err != nil {
			return err
		}
	}

	// Correctness, outside the timed windows.
	checked := make([]int, 0, len(m.bodies))
	for i := range m.bodies {
		checked = append(checked, i)
	}
	onTwo(checked, func(i int) error {
		if err := checkMineBody(ds.db, specs[i].spec, m.bodies[i]); err != nil {
			b.mismatch("spec %d %s: %v", i, specs[i].body, err)
		}
		return nil
	})
	if remote {
		if err := m.compareWithLocal(ds); err != nil {
			return err
		}
	}
	d.close()
	return m.recordHeap(ds, opt)
}

// setUpMine deploys tpmd and PUTs the dataset; with remote workers it
// also runs one mine, which pushes the shards to the workers.
func setUpMine(ds *dataset, opt deployOptions) (*deployment, error) {
	d, err := deploy(opt)
	if err != nil {
		return nil, err
	}
	if _, err = d.must("PUT", "/v1/datasets/"+datasetName, "text/csv", ds.csv, 201); err == nil && opt.workers > 0 {
		_, err = d.must("POST", "/v1/datasets/"+datasetName+"/mine", "application/json", remoteWarmSpec, 200)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// heapProbeMines is how many mines the live-heap probe serves.
const heapProbeMines = 40

// recordHeap measures live_heap_mb on a fresh deployment after a fixed
// amount of work: set-up, then the first heapProbeMines specs of the
// stream, one at a time. The measured deployment would not do: its
// cache holds every result of the phase, so its heap grows with the
// run's throughput and a faster miner would read as using more memory.
func (m *mineRun) recordHeap(ds *dataset, opt deployOptions) error {
	d, err := setUpMine(ds, opt)
	if err != nil {
		return fmt.Errorf("heap probe: %w", err)
	}
	defer d.close()
	for _, req := range m.specs[:heapProbeMines] {
		if _, err := d.must("POST", "/v1/datasets/"+datasetName+"/mine", "application/json", req.body, 200); err != nil {
			return fmt.Errorf("heap probe: %w", err)
		}
	}
	m.b.recordHeap(d.close)
	return nil
}

// checkRemote makes sure mine_remote measured the remote path. A remote
// worker that fails is replaced by an in-process one with identical
// results, and a dataset cut into fewer than two shards is mined
// locally; neither shows in the bodies, both show in the server's
// counters. Every mine of the phase must have reached the workers, every
// worker must still be up, and every retry or failover since the
// deployment started counts as a failed operation.
func (m *mineRun) checkRemote(pd promDiff, mines int) {
	rpcs := pd.delta("tpmd_remote_rpcs_total", func(l map[string]string) bool {
		return l["op"] == remote.OpMine && l["outcome"] == "ok"
	})
	if rpcs < float64(mines) {
		m.b.fail("%v successful remote mine RPCs for %d mines", rpcs, mines)
	}
	if up, total := pd.gauge("tpmd_remote_worker_up"), pd.gauge("tpmd_remote_worker_total"); up < total {
		m.b.fail("%v of %v remote workers up", up, total)
	}
	retries := pd.gauge("tpmd_remote_retries_total")
	failovers := pd.gauge("tpmd_remote_failovers_total")
	if n := int64(retries + failovers); n > 0 {
		m.b.failed.Add(n)
		m.b.note("%v remote retries and %v failovers", retries, failovers)
	}
}

// mineRun is the state shared by the phases of one mine run.
type mineRun struct {
	b        *bench
	d        *deployment
	specs    []mineReq
	next     atomic.Int64
	replayer *mineReplayer // set for the traced phase

	mu      sync.Mutex
	bodies  map[int][]byte   // the correctness sample, by stream index
	digests map[int][32]byte // mine_remote: the compared normalized bodies
}

// phase runs the closed loop for one measured window. With a tracer,
// every request is replayed layer by layer after it completes.
func (m *mineRun) phase(t *tracer) *phase {
	p := &phase{}
	path := "/v1/datasets/" + datasetName + "/mine"
	closedLoop(p, 2, m.b.dur, func(int) bool {
		i := int(m.next.Add(1) - 1)
		if i >= len(m.specs) {
			return false
		}
		req := m.specs[i]
		m.b.attempted.Add(1)
		start := time.Now()
		r, err := m.d.call(context.Background(), "POST", path, "application/json", req.body, nil, start)
		switch {
		case err != nil:
			m.b.fail("mine %d: %v", i, err)
			return true
		case r.status != 200:
			m.b.fail("mine %d: status %d: %s", i, r.status, truncate(r.body))
			return true
		case r.header.Get("X-Cache") != "miss":
			m.b.mismatch("mine %d: X-Cache %q, want miss", i, r.header.Get("X-Cache"))
		}
		p.add(start, r.done)
		m.mu.Lock()
		if req.check && i < checkedPrefix {
			m.bodies[i] = r.body
		}
		if m.d.workers != nil && i < comparedPrefix {
			m.digests[i] = sha256.Sum256(normalizeBody(r.body))
		}
		m.mu.Unlock()
		if t != nil {
			trace := t.newTrace()
			t.spanAt(trace, 0, "request", start, start.Add(r.done))
			onPath, coord, err := m.replayer.replay(t, trace, req.body, r.body)
			if err != nil {
				m.b.fail("replay %d: %v", i, err)
				return true
			}
			// With remote workers the shards are mined out of process, so
			// self time there also holds the remote fan-out.
			if m.d.workers == nil {
				onPath += coord
			}
			t.sample("server.self_ms", ms(r.done-onPath))
		}
		return true
	})
	return p
}

var (
	elapsedRE = regexp.MustCompile(`"elapsed_ms":\d+`)
	cacheRE   = regexp.MustCompile(`"cache":"[a-z]*"`)
)

// normalizeBody blanks the per-request fields of a mine body: the run's
// wall time and how the cache served it.
func normalizeBody(body []byte) []byte {
	body = elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms":0`))
	return cacheRE.ReplaceAll(body, []byte(`"cache":""`))
}

// compareWithLocal replays the compared specs of mine_remote against a
// fresh all-local deployment — mine_cold's configuration — over two
// connections, and requires byte-identical bodies up to the per-request
// fields.
func (m *mineRun) compareWithLocal(ds *dataset) error {
	local, err := setUpMine(ds, deployOptions{})
	if err != nil {
		return err
	}
	defer local.close()
	compared := make([]int, 0, len(m.digests))
	for i := range m.digests {
		compared = append(compared, i)
	}
	return onTwo(compared, func(i int) error {
		body, err := local.must("POST", "/v1/datasets/"+datasetName+"/mine", "application/json", m.specs[i].body, 200)
		if err != nil {
			return fmt.Errorf("local reference: %w", err)
		}
		if sha256.Sum256(normalizeBody(body)) != m.digests[i] {
			m.b.mismatch("spec %d %s: remote body differs from the local one", i, m.specs[i].body)
		}
		return nil
	})
}

// onTwo calls f on every index of todo from two goroutines, the load
// limit, and returns the errors; a goroutine stops at its first one.
func onTwo(todo []int, f func(i int) error) error {
	next := make(chan int, len(todo))
	for _, i := range todo {
		next <- i
	}
	close(next)
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func() {
			for i := range next {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	return errors.Join(<-errs, <-errs)
}
