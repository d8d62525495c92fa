package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/jobs"
	"tpminer/internal/persist"
	"tpminer/internal/seqdb"
	"tpminer/internal/server"
)

const (
	// postEvery is the open-loop producer's schedule: one NDJSON POST
	// every 200 ms, each carrying flushesPerPost full ingest batches, so
	// every POST is acknowledged after flushesPerPost inline flushes. It
	// stays above the job's default 100 ms debounce, which restarts on
	// every change: a job fed faster never runs until the stream pauses.
	postEvery      = 200 * time.Millisecond
	flushesPerPost = 3
	// jobWindow is the continuous job's sliding window, in sequences.
	jobWindow = datasetSeqs
	// deltaWait bounds how long the run waits after a phase for the
	// deltas of its last POSTs.
	deltaWait = 10 * time.Second
)

// jobSpec is the one continuous job: temporal patterns over a sliding
// window of the newest 1000 sequences.
var jobSpec = api.JobSpec{
	ID:      "bench",
	Dataset: datasetName,
	Mine: api.MineSpec{
		Mode:          api.ModeTemporal,
		MiningOptions: api.MiningOptions{MinSupport: 0.08, MaxIntervals: 3},
		Window:        api.WindowSpec{Kind: api.WindowSliding, Count: jobWindow},
	},
}

// ingestEvent is one NDJSON line of the events route.
type ingestEvent struct {
	Seq    string `json:"seq"`
	Symbol string `json:"symbol"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// eventStream cuts fresh Quest sequences into ingest batches of exactly
// the server's flush size, trimming the last sequence of a batch to fit,
// so batch boundaries fall between whole sequences.
type eventStream struct {
	seed  int64
	gen   int
	queue []interval.Sequence
}

func (s *eventStream) batch(size int) (*interval.Database, error) {
	out := &interval.Database{}
	for n := 0; n < size; {
		if len(s.queue) == 0 {
			db, err := questDB(s.seed*1000003+int64(s.gen), 2000, fmt.Sprintf("e%d-", s.gen))
			if err != nil {
				return nil, err
			}
			s.gen++
			s.queue = db.Sequences
		}
		seq := s.queue[0]
		s.queue = s.queue[1:]
		interval.SortIntervals(seq.Intervals)
		if len(seq.Intervals) > size-n {
			seq.Intervals = seq.Intervals[:size-n]
		}
		if len(seq.Intervals) == 0 {
			continue
		}
		out.Sequences = append(out.Sequences, seq)
		n += len(seq.Intervals)
	}
	return out, nil
}

func ndjson(batches []*interval.Database) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, b := range batches {
		for _, seq := range b.Sequences {
			for _, iv := range seq.Intervals {
				if err := enc.Encode(ingestEvent{Seq: seq.ID, Symbol: iv.Symbol, Start: iv.Start, End: iv.End}); err != nil {
					return nil, err
				}
			}
		}
	}
	return buf.Bytes(), nil
}

// runIngest drives ingest_jobs: persistence on file:// at fsync=always,
// one continuous job on a sliding window with one SSE subscriber, and
// one open-loop producer POSTing NDJSON batches of new sequences on a
// fixed schedule. Every flush is a new dataset version.
func runIngest(b *bench) error {
	ds, err := makeDataset()
	if err != nil {
		return err
	}
	var (
		g     *ingestRun
		setup setupTimer
	)
	for i := 0; setup.more(); i++ {
		if g != nil {
			g.close()
		}
		g = &ingestRun{b: b, ref: &interval.Database{Sequences: append([]interval.Sequence(nil), ds.db.Sequences...)},
			stream: &eventStream{seed: b.seed}}
		if err := setup.time(func() error { return g.start(filepath.Join(b.dir, fmt.Sprintf("store-%d", i)), ds) }); err != nil {
			g.close()
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer g.close()

	plain, err := g.phase(nil)
	if err != nil {
		return err
	}
	b.recordE2E(setup, &plain.phase, 90, b.dur)
	if b.trace {
		before, err := g.d.scrape()
		if err != nil {
			return err
		}
		t := newTracer()
		// The producer's lateness and the 202 latency describe the
		// untraced phase.
		for _, late := range plain.late {
			t.sample("gen.late_ms", late)
		}
		for _, ack := range plain.acks {
			t.sample("server.ingest_ack_ms", ack)
		}
		if err := g.openReplayStore(filepath.Join(b.dir, "replay"), ds.db); err != nil {
			return err
		}
		traced, err := g.phase(t)
		if err != nil {
			return err
		}
		after, err := g.d.scrape()
		if err != nil {
			return err
		}
		b.recordLayers(t, promDiff{before, after}, traced.ops())
		b.recordOverhead(&plain.phase, &traced.phase, t.count())
		if err := t.write(b.spans); err != nil {
			return err
		}
	}
	if err := g.check(); err != nil {
		return err
	}
	b.recordHeap(g.close)
	return nil
}

// ingestRun is one deployment of ingest_jobs and the state of its
// stream.
type ingestRun struct {
	b      *bench
	d      *deployment
	sse    *sseReader
	ref    *interval.Database // the dataset as the server must hold it
	stream *eventStream
	acked  uint64 // highest version a 202 carried

	replay    *persist.Store // traced phase: the benchmark's own store
	replayVer uint64
}

func (g *ingestRun) start(dir string, ds *dataset) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if g.d, err = deploy(deployOptions{storeURL: "file://" + abs}); err != nil {
		return err
	}
	if _, err := g.d.must("PUT", "/v1/datasets/"+datasetName, "text/csv", ds.csv, 201); err != nil {
		return err
	}
	spec, err := json.Marshal(jobSpec)
	if err != nil {
		return err
	}
	if _, err := g.d.must("POST", "/v1/jobs", "application/json", spec, 201); err != nil {
		return err
	}
	g.sse = startSSE(g.b, g.d, jobSpec.ID)
	if !g.sse.waitVersion(1, deltaWait) {
		return errors.New("no first job delta")
	}
	return nil
}

// close stops the SSE reader and the deployment; closing twice is a
// no-op.
func (g *ingestRun) close() {
	if g.sse != nil {
		g.sse.stop()
	}
	if g.d != nil {
		g.d.close()
	}
	if g.replay != nil {
		if err := g.replay.Close(); err != nil {
			g.b.note("closing replay store: %v", err)
		}
		g.replay = nil
	}
}

// openReplayStore opens the benchmark's own persist store, holding the
// base dataset, for the traced phase's LogAppend replays.
func (g *ingestRun) openReplayStore(dir string, base *interval.Database) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if g.replay, err = persist.OpenURL("file://"+abs, persist.Options{FsyncMode: persist.FsyncAlways}); err != nil {
		return err
	}
	g.replayVer = 1
	return g.replay.LogPut(datasetName, g.replayVer, base)
}

// ingestPhase adds the producer's lateness and the 202 latencies to a
// phase.
type ingestPhase struct {
	phase
	late []float64 // ms the producer sent after the POST was due
	acks []float64 // ms from due to the 202
}

type post struct {
	due     time.Time
	version uint64
}

// phase runs the open-loop producer for one window, then waits for the
// deltas of its POSTs. ack is timed from each POST's due time to its
// 202; result from the due time to the first SSE delta whose version
// covers the version the 202 carried.
func (g *ingestRun) phase(t *tracer) (*ingestPhase, error) {
	p := &ingestPhase{}
	p.start, p.dur = time.Now(), g.b.dur
	var posts []post
	for k := 0; ; k++ {
		due := p.start.Add(time.Duration(k) * postEvery)
		if !due.Before(p.start.Add(g.b.dur)) {
			break
		}
		time.Sleep(time.Until(due))
		p.late = append(p.late, ms(time.Since(due)))
		batches := make([]*interval.Database, flushesPerPost)
		for i := range batches {
			var err error
			if batches[i], err = g.stream.batch(server.DefaultIngestFlushCount); err != nil {
				return nil, err
			}
		}
		body, err := ndjson(batches)
		if err != nil {
			return nil, err
		}
		g.b.attempted.Add(1)
		r, err := g.d.call(context.Background(), "POST", "/v1/datasets/"+datasetName+"/events",
			"application/x-ndjson", body, nil, due)
		if err != nil {
			g.b.fail("ingest POST: %v", err)
			continue
		}
		var ack struct {
			Accepted int    `json:"accepted"`
			Pending  int    `json:"pending"`
			Version  uint64 `json:"version"`
		}
		if r.status != 202 || json.Unmarshal(r.body, &ack) != nil || ack.Pending != 0 || ack.Version <= g.acked {
			g.b.fail("ingest POST: status %d: %s", r.status, truncate(r.body))
			continue
		}
		// Accepted: the server now holds these batches as new versions.
		for _, bt := range batches {
			g.ref.Sequences = append(g.ref.Sequences, bt.Sequences...)
		}
		g.acked = ack.Version
		p.add(due, -1)
		p.acks = append(p.acks, ms(r.ack))
		posts = append(posts, post{due: due, version: ack.Version})
		if t != nil {
			g.replayPost(t, due, r, batches, len(body))
		}
	}
	p.elapsed = time.Since(p.start)
	if !g.sse.waitVersion(g.acked, deltaWait) {
		g.b.note("deltas stopped at version %d, last acked %d", g.sse.version(), g.acked)
	}
	arrivals := g.sse.arrivalsSince(p.start)
	j := 0
	for _, ps := range posts {
		for j < len(arrivals) && arrivals[j].version < ps.version {
			j++
		}
		if j == len(arrivals) {
			g.b.fail("no delta arrived for version %d", ps.version)
			continue
		}
		p.res = append(p.res, ms(arrivals[j].at.Sub(ps.due)))
	}
	return p, nil
}

// replayPost re-runs, under a replay span, what one POST reached: the
// WAL append of each of its batches on the benchmark's own store (the
// server path), then the job's re-mine of the new window (seqdb, core),
// which runs after the ack and sets the delta lag.
func (g *ingestRun) replayPost(t *tracer, due time.Time, r reply, batches []*interval.Database, userBytes int) {
	trace := t.newTrace()
	t.spanAt(trace, 0, "request", due, due.Add(r.done))
	rs := t.begin(trace, 0, "replay")
	defer rs.end()
	var onPath time.Duration
	for _, bt := range batches {
		g.replayVer++
		var err error
		d := t.timed(trace, rs.s.id, "persist.Store.LogAppend", func() { err = g.replay.LogAppend(datasetName, g.replayVer, bt) })
		if err != nil {
			g.b.fail("replay LogAppend: %v", err)
		}
		onPath += d
		t.sample("persist.log_append_ms", ms(d))
	}
	t.sample("server.self_ms", ms(r.done-onPath))
	t.sample("user_bytes", float64(userBytes))

	window := &interval.Database{Sequences: g.ref.Sequences[len(g.ref.Sequences)-jobWindow:]}
	opt := jobSpec.Mine.Options(1)
	minCount, err := core.ResolveMinCount(opt, window.Len())
	if err != nil {
		g.b.fail("replay: %v", err)
		return
	}
	var edb *seqdb.EndpointDB
	enc := t.timed(trace, rs.s.id, "seqdb.EncodeEndpointDB", func() { edb, err = seqdb.EncodeEndpointDB(window) })
	if err != nil {
		g.b.fail("replay encode: %v", err)
		return
	}
	p1 := t.timed(trace, rs.s.id, "seqdb.FilterInfrequent", func() { edb.FilterInfrequent(minCount) })
	var st core.Stats
	search := t.timed(trace, rs.s.id, "core.Mine", func() {
		_, st, err = core.MineTemporalCtx(context.Background(), window, opt)
	})
	if err != nil {
		g.b.fail("replay mine: %v", err)
		return
	}
	t.sample("seqdb.encode_ms", ms(enc))
	t.sample("seqdb.p1_filter_ms", ms(p1))
	t.sample("core.mine_ms", ms(search))
	t.sample("core.search_ms", ms(search-enc-p1))
	t.sample("seqdb.items_removed", float64(st.ItemsRemoved))
	t.sample("core.nodes", float64(st.Nodes))
	t.sample("core.candidate_scans", float64(st.CandidateScans))
	t.sample("core.emitted", float64(st.Emitted))
	t.sample("core.pruned", float64(st.PairPruned+st.PostfixPruned+st.SizePruned))
}

// check requires the applied deltas to equal the job's stored result
// and a serial mine of the final window.
func (g *ingestRun) check() error {
	if !g.sse.waitVersion(g.acked, deltaWait) {
		g.b.mismatch("final delta never arrived (have version %d, want %d)", g.sse.version(), g.acked)
		return nil
	}
	body, err := g.d.must("GET", "/v1/jobs/"+jobSpec.ID+"/result", "", nil, 200)
	if err != nil {
		return err
	}
	var res jobs.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	stored := res.Patterns
	jobs.SortPatterns(stored)

	window := &interval.Database{Sequences: g.ref.Sequences[len(g.ref.Sequences)-jobWindow:]}
	mined, err := serialPatterns(window, jobSpec.Mine)
	if err != nil {
		return err
	}
	serial := make([]jobs.Pattern, 0, len(mined))
	for _, mp := range mined {
		raw, err := json.Marshal(mp)
		if err != nil {
			return err
		}
		key := mp.Pattern
		if mp.Relations != "" {
			key += "\x1f" + mp.Relations
		}
		serial = append(serial, jobs.Pattern{Key: key, Support: mp.Support, Body: raw})
	}
	jobs.SortPatterns(serial)

	applied, err := json.Marshal(g.sse.patterns())
	if err != nil {
		return err
	}
	for name, other := range map[string][]jobs.Pattern{"stored job result": stored, "serial mine of the final window": serial} {
		want, err := json.Marshal(other)
		if err != nil {
			return err
		}
		if !bytes.Equal(applied, want) {
			g.b.mismatch("applied deltas (version %d) differ from the %s", g.sse.version(), name)
		}
	}
	if res.Version != g.acked {
		g.b.mismatch("job result at version %d, last acked %d", res.Version, g.acked)
	}
	return nil
}

// sseReader is the one SSE subscriber: it applies every delta of the
// job's stream and timestamps its arrival. A dropped stream counts as a
// failure and is resumed with Last-Event-ID.
type sseReader struct {
	b      *bench
	d      *deployment
	job    string
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	state    []jobs.Pattern
	ver      uint64
	lastID   uint64
	arrivals []arrival
}

type arrival struct {
	at      time.Time
	version uint64
}

func startSSE(b *bench, d *deployment, job string) *sseReader {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sseReader{b: b, d: d, job: job, cancel: cancel, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.loop(ctx)
	return s
}

func (s *sseReader) stop() {
	s.cancel()
	<-s.done
}

func (s *sseReader) loop(ctx context.Context) {
	defer close(s.done)
	for {
		err := s.stream(ctx)
		if ctx.Err() != nil {
			return
		}
		s.b.fail("SSE stream dropped: %v", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// stream reads one connection of the event stream until it ends.
func (s *sseReader) stream(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, "GET", s.d.base+"/v1/jobs/"+s.job+"/events", nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(s.lastID, 10))
	}
	s.mu.Unlock()
	resp, err := s.d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64*1024)
	var id uint64
	var event string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case strings.HasPrefix(line, "data: "):
			s.apply(id, event, []byte(line[6:]))
		}
	}
}

func (s *sseReader) apply(id uint64, event string, data []byte) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch event {
	case jobs.EventResult:
		var res jobs.Result
		if err := json.Unmarshal(data, &res); err != nil {
			s.b.mismatch("SSE result event: %v", err)
			return
		}
		s.state = res.Patterns
		jobs.SortPatterns(s.state)
		s.ver = res.Version
	case jobs.EventDelta:
		var d jobs.Delta
		if err := json.Unmarshal(data, &d); err != nil {
			s.b.mismatch("SSE delta event: %v", err)
			return
		}
		s.state = jobs.Apply(s.state, d)
		s.ver = d.Version
		if d.Total != len(s.state) {
			s.b.mismatch("delta %d: %d patterns after applying, checksum says %d", id, len(s.state), d.Total)
		}
	default:
		return
	}
	s.lastID = id
	s.arrivals = append(s.arrivals, arrival{at: now, version: s.ver})
	s.cond.Broadcast()
}

// waitVersion waits until the applied state reaches version v.
func (s *sseReader) waitVersion(v uint64, limit time.Duration) bool {
	timer := time.AfterFunc(limit, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(limit)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ver < v && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return s.ver >= v
}

func (s *sseReader) version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ver
}

func (s *sseReader) patterns() []jobs.Pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *sseReader) arrivalsSince(t time.Time) []arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []arrival
	for _, a := range s.arrivals {
		if !a.at.Before(t) {
			out = append(out, a)
		}
	}
	return out
}
