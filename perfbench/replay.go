package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
	"tpminer/internal/server"
	"tpminer/internal/shard"
)

// decodeSpec decodes a mine body the way the server does.
func decodeSpec(body []byte) (api.MineSpec, error) {
	var spec api.MineSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// replaySpec is the api layer of one request: decode, Validate and the
// cache key.
func replaySpec(t *tracer, trace, parent uint32, body []byte) (api.MineSpec, time.Duration, error) {
	var (
		spec api.MineSpec
		err  error
	)
	d := t.timed(trace, parent, "api.MineSpec.Validate", func() {
		if spec, err = decodeSpec(body); err == nil {
			if err = spec.Validate(); err == nil {
				_ = spec.ResultOptions()
			}
		}
	})
	t.sample("api.spec_us", float64(d)/float64(time.Microsecond))
	return spec, d, err
}

// mineReplayer replays uncached mines over one fixed database.
type mineReplayer struct {
	db   *interval.Database
	part *shard.Partition // at tpmd's default shard count
}

func newMineReplayer(db *interval.Database) *mineReplayer {
	return &mineReplayer{db: db, part: shard.New(db, runtime.GOMAXPROCS(0), server.DefaultShardMinSeqs)}
}

// slowestShard is a shard.Metrics that keeps the slowest shard's time.
type slowestShard struct {
	mu      sync.Mutex
	slowest time.Duration
}

func (s *slowestShard) FanOut(int) {}
func (s *slowestShard) ShardDone(_ int, d time.Duration) {
	s.mu.Lock()
	if d > s.slowest {
		s.slowest = d
	}
	s.mu.Unlock()
}
func (s *slowestShard) Merged(int, int) {}

// replay re-runs one finished mine under a replay span: the api layer,
// the encoding and P1 filter, the serial core search and the
// closed/maximal filter, the sharded coordinator at the server's default
// shard count, and the JSON rendering of the response. It returns the
// time of the children the server's own path runs (api, filter, JSON)
// and, separately, the shard coordinator's time, which is on the path
// only when the shards are mined in-process. The serial core and seqdb
// calls break the search down and are not on the server's path.
func (r *mineReplayer) replay(t *tracer, trace uint32, reqBody, respBody []byte) (onPath, coord time.Duration, err error) {
	ctx := context.Background()
	rs := t.begin(trace, 0, "replay")
	defer rs.end()
	spec, onPath, err := replaySpec(t, trace, rs.s.id, reqBody)
	if err != nil {
		return 0, 0, err
	}
	opt := spec.Options(runtime.GOMAXPROCS(0))
	minCount, err := core.ResolveMinCount(opt, r.db.Len())
	if err != nil {
		return 0, 0, err
	}
	temporal := spec.ResolvedMode() == api.ModeTemporal

	var enc, p1 time.Duration
	if temporal {
		var edb *seqdb.EndpointDB
		enc = t.timed(trace, rs.s.id, "seqdb.EncodeEndpointDB", func() { edb, err = seqdb.EncodeEndpointDB(r.db) })
		if err == nil {
			p1 = t.timed(trace, rs.s.id, "seqdb.FilterInfrequent", func() { edb.FilterInfrequent(minCount) })
		}
	} else {
		var cdb *seqdb.CoincDB
		enc = t.timed(trace, rs.s.id, "seqdb.EncodeCoincidenceDB", func() { cdb, err = seqdb.EncodeCoincidenceDB(r.db) })
		if err == nil {
			p1 = t.timed(trace, rs.s.id, "seqdb.FilterInfrequent", func() { cdb.FilterInfrequent(minCount) })
		}
	}
	if err != nil {
		return 0, 0, err
	}

	var (
		trs  []pattern.TemporalResult
		crs  []pattern.CoincResult
		fdur time.Duration
	)
	search := t.timed(trace, rs.s.id, "core.Mine", func() {
		switch {
		case temporal && spec.TopK > 0:
			trs, _, err = core.MineTemporalTopKCtx(ctx, r.db, spec.TopK, opt)
		case temporal:
			trs, _, err = core.MineTemporalCtx(ctx, r.db, opt)
		case spec.TopK > 0:
			crs, _, err = core.MineCoincidenceTopKCtx(ctx, r.db, spec.TopK, opt)
		default:
			crs, _, err = core.MineCoincidenceCtx(ctx, r.db, opt)
		}
	})
	if err == nil && spec.Filter != "" {
		fdur = t.timed(trace, rs.s.id, "core.Filter", func() { trs, crs, err = filter(ctx, spec.Filter, temporal, trs, crs) })
		t.sample("core.filter_ms", ms(fdur))
	}
	if err != nil {
		return 0, 0, err
	}

	met := &slowestShard{}
	co := shard.NewLocal(r.db, r.part)
	co.Met = met
	coord = t.timed(trace, rs.s.id, "shard.Coordinator.Mine", func() {
		switch {
		case temporal && spec.TopK > 0:
			_, _, err = co.MineTemporalTopK(ctx, spec.TopK, opt)
		case temporal:
			_, _, err = co.MineTemporal(ctx, opt)
		case spec.TopK > 0:
			_, _, err = co.MineCoincidenceTopK(ctx, spec.TopK, opt)
		default:
			_, _, err = co.MineCoincidence(ctx, opt)
		}
	})
	if err != nil {
		return 0, 0, err
	}

	var resp server.MineResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return 0, 0, fmt.Errorf("decode mine response: %w", err)
	}
	render := t.timed(trace, rs.s.id, "json.Marshal", func() { _, err = json.Marshal(resp) })

	t.sample("seqdb.encode_ms", ms(enc))
	t.sample("seqdb.p1_filter_ms", ms(p1))
	t.sample("core.mine_ms", ms(search))
	t.sample("core.search_ms", ms(search-enc-p1))
	t.sample("shard.coordinator_ms", ms(coord))
	t.sample("shard.slowest_ms", ms(met.slowest))
	st := resp.Stats
	t.sample("seqdb.items_removed", float64(st.ItemsRemoved))
	t.sample("core.nodes", float64(st.Nodes))
	t.sample("core.candidate_scans", float64(st.CandidateScans))
	t.sample("core.emitted", float64(st.Emitted))
	t.sample("core.pruned", float64(st.PairPruned+st.PostfixPruned+st.SizePruned))
	t.sample("core.steals", float64(st.StealsTaken))
	return onPath + fdur + render, coord, err
}

// filter applies a spec's closed/maximal filter to the results of its
// mode, as the server does.
func filter(ctx context.Context, kind string, temporal bool, trs []pattern.TemporalResult, crs []pattern.CoincResult) ([]pattern.TemporalResult, []pattern.CoincResult, error) {
	var err error
	switch {
	case kind == "closed" && temporal:
		trs, err = core.FilterClosedCtx(ctx, trs)
	case kind == "maximal" && temporal:
		trs, err = core.FilterMaximalCtx(ctx, trs)
	case kind == "closed":
		crs, err = core.FilterClosedCoincCtx(ctx, crs)
	case kind == "maximal":
		crs, err = core.FilterMaximalCoincCtx(ctx, crs)
	}
	return trs, crs, err
}

// serialPatterns is the reference result of one spec: the serial core
// miner on db, filtered and rendered exactly as a mine response renders
// its patterns.
func serialPatterns(db *interval.Database, spec api.MineSpec) ([]server.MinedPattern, error) {
	ctx := context.Background()
	opt := spec.Options(1) // one worker: the serial miner
	var (
		trs []pattern.TemporalResult
		crs []pattern.CoincResult
		err error
	)
	temporal := spec.ResolvedMode() == api.ModeTemporal
	switch {
	case temporal && spec.TopK > 0:
		trs, _, err = core.MineTemporalTopKCtx(ctx, db, spec.TopK, opt)
	case temporal:
		trs, _, err = core.MineTemporalCtx(ctx, db, opt)
	case spec.TopK > 0:
		crs, _, err = core.MineCoincidenceTopKCtx(ctx, db, spec.TopK, opt)
	default:
		crs, _, err = core.MineCoincidenceCtx(ctx, db, opt)
	}
	if err == nil {
		trs, crs, err = filter(ctx, spec.Filter, temporal, trs, crs)
	}
	if err != nil {
		return nil, err
	}
	var out []server.MinedPattern
	for _, pr := range trs {
		out = append(out, server.MinedPattern{Support: pr.Support, Pattern: pr.Pattern.String(),
			Relations: pr.Pattern.RelationSummary()})
	}
	for _, pr := range crs {
		out = append(out, server.MinedPattern{Support: pr.Support, Pattern: pr.Pattern.String()})
	}
	return out, nil
}

// checkMineBody compares one 200 mine body with the serial reference:
// patterns, count, dataset and type must be identical. The search-work
// counters in stats legitimately differ between the sharded and the
// serial path, and elapsed_ms and the cache field are per request, so
// stats are compared only on sequences, min_count and truncation.
func checkMineBody(db *interval.Database, spec api.MineSpec, body []byte) error {
	var resp server.MineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	want, err := serialPatterns(db, spec)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	got, err := json.Marshal(resp.Patterns)
	if err != nil {
		return err
	}
	ref, err := json.Marshal(want)
	if err != nil {
		return err
	}
	switch {
	case !bytes.Equal(got, ref):
		return fmt.Errorf("patterns differ from the serial miner (%d vs %d patterns)", len(resp.Patterns), len(want))
	case resp.Count != len(want) || resp.Dataset != datasetName || resp.Type != spec.ResolvedMode():
		return fmt.Errorf("header fields differ: count=%d dataset=%q type=%q", resp.Count, resp.Dataset, resp.Type)
	case resp.Stats.Sequences != db.Len() || resp.Stats.Truncated:
		return fmt.Errorf("stats differ: sequences=%d truncated=%v", resp.Stats.Sequences, resp.Stats.Truncated)
	}
	if spec.TopK > 0 {
		return nil // top-k reports the threshold it rose to, not the floor
	}
	minCount, err := core.ResolveMinCount(spec.Options(1), db.Len())
	if err == nil && resp.Stats.MinCount != minCount {
		return fmt.Errorf("min_count %d, want %d", resp.Stats.MinCount, minCount)
	}
	return err
}
