package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// Metrics receives coordinator events. Implementations must be safe for
// concurrent use; a nil Metrics disables instrumentation.
type Metrics interface {
	// FanOut is called once per mine request with the shard count.
	FanOut(shards int)
	// ShardDone is called when one shard's mine call returns.
	ShardDone(shard int, d time.Duration)
	// Merged is called after the global merge with the number of merged
	// result patterns and the number of support-completion counts issued.
	Merged(patterns, counted int)
}

// Coordinator fans a mine request out to shard workers and merges the
// per-shard supports into the exact global result. Results — patterns,
// supports, and ordering — are identical to running the serial miner on
// the unpartitioned database.
type Coordinator struct {
	// Workers mine the shards; Sizes holds each shard's sequence count
	// (the partition-aware local bound depends on it).
	Workers []Worker
	Sizes   []int
	// Met receives instrumentation events; nil disables them.
	Met Metrics
}

// NewLocal builds a coordinator with one in-process worker per shard of
// the partition. db must be treated as immutable for the coordinator's
// lifetime (the store's copy-on-write contract guarantees this).
func NewLocal(db *interval.Database, p *Partition) *Coordinator {
	c := &Coordinator{
		Workers: make([]Worker, p.NumShards()),
		Sizes:   make([]int, p.NumShards()),
	}
	for i := range c.Workers {
		c.Workers[i] = NewLocalWorker(p.SubDatabase(db, i))
		c.Sizes[i] = len(p.Seqs(i))
	}
	return c
}

// NewWithWorkers builds a coordinator over explicit workers — the hook
// for registry-aware construction, where a pool picks a remote or local
// worker per shard. sizes must hold each worker's shard sequence count;
// the slices are adopted, not copied.
func NewWithWorkers(workers []Worker, sizes []int) *Coordinator {
	if len(workers) != len(sizes) {
		panic("shard: NewWithWorkers: workers and sizes length mismatch")
	}
	return &Coordinator{Workers: workers, Sizes: sizes}
}

// LocalBound is the partition-aware local support bound: shard i of
// shardSeqs sequences (out of totalSeqs) mines completely at
// max(1, ceil(minCount·shardSeqs/totalSeqs)). Soundness: if a pattern
// misses this bound on every shard, each local support is strictly below
// minCount·nᵢ/N (an integer below a ceiling is below the ratio), so the
// per-shard supports sum to strictly less than minCount — a globally
// frequent pattern is therefore reported by at least one shard, and the
// coordinator recovers its exact global support by counting it on the
// shards that stayed silent.
func LocalBound(minCount, shardSeqs, totalSeqs int) int {
	if totalSeqs <= 0 {
		return 1
	}
	b := (minCount*shardSeqs + totalSeqs - 1) / totalSeqs
	if b < 1 {
		b = 1
	}
	return b
}

// totalSeqs is the partitioned database's sequence count.
func (c *Coordinator) totalSeqs() int {
	n := 0
	for _, s := range c.Sizes {
		n += s
	}
	return n
}

// shardOpt derives the options one shard mines with: the local bound
// replaces the global threshold, result caps move to the coordinator
// (shards must report everything above their bound or the merge loses
// patterns), and temporal results stay raw so supports are additive.
func shardOpt(opt core.Options, kind Kind, bound int) core.Options {
	local := opt
	local.MinSupport = 0
	local.MinCount = bound
	local.MaxPatterns = 0
	if kind == KindTemporal {
		local.KeepOccurrences = true
	}
	return local
}

// fanOut runs f once per shard concurrently and waits for every
// goroutine to finish before returning — also on error and on context
// cancellation, so no goroutine outlives the call. The first failure
// cancels the shared context; a real error is preferred over the
// resulting cancellations when reporting. Failures are wrapped with the
// shard index and worker address so a distributed mine names which
// machine broke; Unwrap keeps errors.Is/As matching on the cause.
func (c *Coordinator) fanOut(ctx context.Context, f func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(c.Workers))
	var wg sync.WaitGroup
	for i := range c.Workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(ctx, i); err != nil {
				errs[i] = &ShardError{Shard: i, Worker: WorkerAddr(c.Workers[i]), Err: err}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// mineAll fans one mine request out to every shard at the given local
// bounds and folds the per-shard stats into agg.
func (c *Coordinator) mineAll(ctx context.Context, kind Kind, topK, minCount int, opt core.Options, agg *core.Stats) ([]*MineShardResponse, error) {
	if c.Met != nil {
		c.Met.FanOut(len(c.Workers))
	}
	resps := make([]*MineShardResponse, len(c.Workers))
	err := c.fanOut(ctx, func(ctx context.Context, i int) error {
		t0 := time.Now()
		resp, err := c.Workers[i].Mine(ctx, &MineShardRequest{
			Shard: i,
			Kind:  kind,
			TopK:  topK,
			Opt:   shardOpt(opt, kind, LocalBound(minCount, c.Sizes[i], c.totalSeqs())),
		})
		if c.Met != nil {
			c.Met.ShardDone(i, time.Since(t0))
		}
		if err != nil {
			return err
		}
		resps[i] = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range resps {
		foldStats(agg, r.Stats)
	}
	return resps, nil
}

// foldStats accumulates one shard's search counters into the aggregate.
// Sequences and MinCount stay global (set by the caller); Truncated
// propagates because a truncated shard makes the merged result
// incomplete too.
func foldStats(agg *core.Stats, s core.Stats) {
	agg.ItemsRemoved += s.ItemsRemoved
	agg.Nodes += s.Nodes
	agg.Emitted += s.Emitted
	agg.CandidateScans += s.CandidateScans
	agg.PairPruned += s.PairPruned
	agg.PostfixPruned += s.PostfixPruned
	agg.SizePruned += s.SizePruned
	if s.Truncated && !agg.Truncated {
		agg.Truncated = true
		agg.TruncatedBy = s.TruncatedBy
	}
}

// tAcc accumulates one raw temporal pattern's global support.
type tAcc struct {
	pat   pattern.Temporal
	total int
	seen  []bool // which shards reported it
}

// mergeTemporal merges per-shard raw results: sum reported supports,
// fetch exact supports from the shards that stayed below their local
// bound (support completion), and keep patterns whose global support
// reaches minCount. Returned results are raw and unsorted; counted is
// the number of completion counts issued.
func (c *Coordinator) mergeTemporal(ctx context.Context, resps []*MineShardResponse, opt core.Options, minCount int) ([]pattern.TemporalResult, int, error) {
	k := len(c.Workers)
	accs := make(map[string]*tAcc)
	var order []string
	for i, resp := range resps {
		for _, r := range resp.Temporal {
			key := r.Pattern.Key()
			a := accs[key]
			if a == nil {
				a = &tAcc{pat: r.Pattern, seen: make([]bool, k)}
				accs[key] = a
				order = append(order, key)
			}
			a.total += r.Support
			a.seen[i] = true
		}
	}

	missing := make([][]pattern.Temporal, k)
	missingAcc := make([][]*tAcc, k)
	counted := 0
	for _, key := range order {
		a := accs[key]
		for i := 0; i < k; i++ {
			if !a.seen[i] {
				missing[i] = append(missing[i], a.pat)
				missingAcc[i] = append(missingAcc[i], a)
				counted++
			}
		}
	}
	counts := make([][]int, k)
	err := c.fanOut(ctx, func(ctx context.Context, i int) error {
		if len(missing[i]) == 0 {
			return nil
		}
		resp, err := c.Workers[i].Count(ctx, &CountRequest{
			Shard:    i,
			Kind:     KindTemporal,
			Temporal: missing[i],
			MaxSpan:  opt.MaxSpan,
			MaxGap:   opt.MaxGap,
		})
		if err != nil {
			return err
		}
		if len(resp.Supports) != len(missing[i]) {
			return fmt.Errorf("count returned %d supports for %d patterns", len(resp.Supports), len(missing[i]))
		}
		counts[i] = resp.Supports
		return nil
	})
	if err != nil {
		return nil, counted, err
	}
	for i := 0; i < k; i++ {
		for j, s := range counts[i] {
			missingAcc[i][j].total += s
		}
	}

	out := make([]pattern.TemporalResult, 0, len(order))
	for _, key := range order {
		if a := accs[key]; a.total >= minCount {
			out = append(out, pattern.TemporalResult{Pattern: a.pat, Support: a.total})
		}
	}
	return out, counted, nil
}

// cAcc accumulates one coincidence pattern's global support.
type cAcc struct {
	pat   pattern.Coinc
	total int
	seen  []bool
}

// mergeCoinc is the coincidence analogue of mergeTemporal.
func (c *Coordinator) mergeCoinc(ctx context.Context, resps []*MineShardResponse, minCount int) ([]pattern.CoincResult, int, error) {
	k := len(c.Workers)
	accs := make(map[string]*cAcc)
	var order []string
	for i, resp := range resps {
		for _, r := range resp.Coinc {
			key := r.Pattern.Key()
			a := accs[key]
			if a == nil {
				a = &cAcc{pat: r.Pattern, seen: make([]bool, k)}
				accs[key] = a
				order = append(order, key)
			}
			a.total += r.Support
			a.seen[i] = true
		}
	}

	missing := make([][]pattern.Coinc, k)
	missingAcc := make([][]*cAcc, k)
	counted := 0
	for _, key := range order {
		a := accs[key]
		for i := 0; i < k; i++ {
			if !a.seen[i] {
				missing[i] = append(missing[i], a.pat)
				missingAcc[i] = append(missingAcc[i], a)
				counted++
			}
		}
	}
	counts := make([][]int, k)
	err := c.fanOut(ctx, func(ctx context.Context, i int) error {
		if len(missing[i]) == 0 {
			return nil
		}
		resp, err := c.Workers[i].Count(ctx, &CountRequest{
			Shard: i,
			Kind:  KindCoincidence,
			Coinc: missing[i],
		})
		if err != nil {
			return err
		}
		if len(resp.Supports) != len(missing[i]) {
			return fmt.Errorf("count returned %d supports for %d patterns", len(resp.Supports), len(missing[i]))
		}
		counts[i] = resp.Supports
		return nil
	})
	if err != nil {
		return nil, counted, err
	}
	for i := 0; i < k; i++ {
		for j, s := range counts[i] {
			missingAcc[i][j].total += s
		}
	}

	out := make([]pattern.CoincResult, 0, len(order))
	for _, key := range order {
		if a := accs[key]; a.total >= minCount {
			out = append(out, pattern.CoincResult{Pattern: a.pat, Support: a.total})
		}
	}
	return out, counted, nil
}

// capPatterns applies the global MaxPatterns cap to a sorted result
// slice, mirroring the serial miner's truncation marker.
func capPatterns(n int, max int, stats *core.Stats) int {
	if max > 0 && n > max {
		stats.Truncated = true
		if stats.TruncatedBy == "" {
			stats.TruncatedBy = core.TruncatedMaxPatterns
		}
		return max
	}
	return n
}

// soloMine short-circuits a one-shard coordinator: its single worker
// holds the whole database, so the miner's own answer under the
// caller's unmodified options — full bound, requested distinctness, no
// merge — already is the exact serial result. This keeps a shards=1
// deployment within measurement noise of unsharded mining.
func (c *Coordinator) soloMine(ctx context.Context, kind Kind, topK int, opt core.Options) (*MineShardResponse, error) {
	start := time.Now()
	if c.Met != nil {
		c.Met.FanOut(1)
	}
	resp, err := c.Workers[0].Mine(ctx, &MineShardRequest{Shard: 0, Kind: kind, TopK: topK, Opt: opt})
	if err != nil {
		return nil, err
	}
	if c.Met != nil {
		c.Met.ShardDone(0, time.Since(start))
		if kind == KindTemporal {
			c.Met.Merged(len(resp.Temporal), 0)
		} else {
			c.Met.Merged(len(resp.Coinc), 0)
		}
	}
	return resp, nil
}

// MineTemporal mines temporal patterns across all shards. Output —
// patterns, supports, ordering — is identical to core.MineTemporalCtx on
// the unpartitioned database, unless a shard's TimeBudget ran out
// (Stats.Truncated then reports the incomplete result, as serially).
func (c *Coordinator) MineTemporal(ctx context.Context, opt core.Options) ([]pattern.TemporalResult, core.Stats, error) {
	if len(c.Workers) == 1 {
		resp, err := c.soloMine(ctx, KindTemporal, 0, opt)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return resp.Temporal, resp.Stats, nil
	}
	start := time.Now()
	n := c.totalSeqs()
	minCount, err := core.ResolveMinCount(opt, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats := core.Stats{Sequences: n, MinCount: minCount}
	resps, err := c.mineAll(ctx, KindTemporal, 0, minCount, opt, &stats)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	merged, counted, err := c.mergeTemporal(ctx, resps, opt, minCount)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	if !opt.KeepOccurrences {
		merged = pattern.NormalizeTemporalResults(merged)
	} else {
		pattern.SortTemporalResults(merged)
	}
	merged = merged[:capPatterns(len(merged), opt.MaxPatterns, &stats)]
	if c.Met != nil {
		c.Met.Merged(len(merged), counted)
	}
	stats.Elapsed = time.Since(start)
	return merged, stats, nil
}

// MineCoincidence mines coincidence patterns across all shards with the
// same exactness contract as MineTemporal.
func (c *Coordinator) MineCoincidence(ctx context.Context, opt core.Options) ([]pattern.CoincResult, core.Stats, error) {
	if len(c.Workers) == 1 {
		resp, err := c.soloMine(ctx, KindCoincidence, 0, opt)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return resp.Coinc, resp.Stats, nil
	}
	start := time.Now()
	n := c.totalSeqs()
	minCount, err := core.ResolveMinCount(opt, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats := core.Stats{Sequences: n, MinCount: minCount}
	resps, err := c.mineAll(ctx, KindCoincidence, 0, minCount, opt, &stats)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	merged, counted, err := c.mergeCoinc(ctx, resps, minCount)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	pattern.SortCoincResults(merged)
	merged = merged[:capPatterns(len(merged), opt.MaxPatterns, &stats)]
	if c.Met != nil {
		c.Met.Merged(len(merged), counted)
	}
	stats.Elapsed = time.Since(start)
	return merged, stats, nil
}

// MineTemporalTopK mines the k best-supported temporal patterns across
// all shards, identical to core.MineTemporalTopKCtx. Two phases, in the
// spirit of the TPUT threshold algorithm: phase one takes each shard's
// local top-k (at the floor's local bound), completes the candidates'
// exact global supports, and derives a sound global threshold τ — the
// candidate kth-best is a lower bound on the true kth-best because every
// one of the true top-k patterns is some shard's local top-k candidate
// or beaten by k candidates. Phase two is a complete mine at
// max(τ, floor), which the merge filters exactly; the first k of the
// deterministic order is then the serial answer.
func (c *Coordinator) MineTemporalTopK(ctx context.Context, k int, opt core.Options) ([]pattern.TemporalResult, core.Stats, error) {
	start := time.Now()
	if k <= 0 {
		return nil, core.Stats{}, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	if len(c.Workers) == 1 {
		resp, err := c.soloMine(ctx, KindTemporal, k, opt)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return resp.Temporal, resp.Stats, nil
	}
	if opt.MinCount == 0 && opt.MinSupport == 0 {
		opt.MinCount = 1
	}
	n := c.totalSeqs()
	floor, err := core.ResolveMinCount(opt, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats := core.Stats{Sequences: n, MinCount: floor}

	respA, err := c.mineAll(ctx, KindTemporal, k, floor, opt, &stats)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	candidates, countedA, err := c.mergeTemporal(ctx, respA, opt, 1)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	threshold := floor
	if t := kthBestTemporal(candidates, k, opt.KeepOccurrences); t > threshold {
		threshold = t
	}

	respB, err := c.mineAll(ctx, KindTemporal, 0, threshold, opt, &stats)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	merged, countedB, err := c.mergeTemporal(ctx, respB, opt, threshold)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	if !opt.KeepOccurrences {
		merged = pattern.NormalizeTemporalResults(merged)
	} else {
		pattern.SortTemporalResults(merged)
	}
	if len(merged) > k {
		merged = merged[:k]
	}
	merged = merged[:capPatterns(len(merged), opt.MaxPatterns, &stats)]
	if c.Met != nil {
		c.Met.Merged(len(merged), countedA+countedB)
	}
	stats.Elapsed = time.Since(start)
	return merged, stats, nil
}

// kthBestTemporal returns the kth-best exact support among the phase-one
// candidates under the request's distinctness mode, or 0 when fewer than
// k distinct candidates exist. Normalized supports are max-merged like
// the final result, so the value stays a lower bound on the true
// kth-best.
func kthBestTemporal(candidates []pattern.TemporalResult, k int, keepOccurrences bool) int {
	var rs []pattern.TemporalResult
	if !keepOccurrences {
		rs = pattern.NormalizeTemporalResults(candidates)
	} else {
		rs = append([]pattern.TemporalResult(nil), candidates...)
		pattern.SortTemporalResults(rs)
	}
	if len(rs) < k {
		return 0
	}
	return rs[k-1].Support
}

// MineCoincidenceTopK is the coincidence analogue of MineTemporalTopK.
func (c *Coordinator) MineCoincidenceTopK(ctx context.Context, k int, opt core.Options) ([]pattern.CoincResult, core.Stats, error) {
	start := time.Now()
	if k <= 0 {
		return nil, core.Stats{}, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	if len(c.Workers) == 1 {
		resp, err := c.soloMine(ctx, KindCoincidence, k, opt)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return resp.Coinc, resp.Stats, nil
	}
	if opt.MinCount == 0 && opt.MinSupport == 0 {
		opt.MinCount = 1
	}
	n := c.totalSeqs()
	floor, err := core.ResolveMinCount(opt, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats := core.Stats{Sequences: n, MinCount: floor}

	respA, err := c.mineAll(ctx, KindCoincidence, k, floor, opt, &stats)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	candidates, countedA, err := c.mergeCoinc(ctx, respA, 1)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	threshold := floor
	if len(candidates) >= k {
		sorted := append([]pattern.CoincResult(nil), candidates...)
		pattern.SortCoincResults(sorted)
		if t := sorted[k-1].Support; t > threshold {
			threshold = t
		}
	}

	respB, err := c.mineAll(ctx, KindCoincidence, 0, threshold, opt, &stats)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	merged, countedB, err := c.mergeCoinc(ctx, respB, threshold)
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	pattern.SortCoincResults(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	merged = merged[:capPatterns(len(merged), opt.MaxPatterns, &stats)]
	if c.Met != nil {
		c.Met.Merged(len(merged), countedA+countedB)
	}
	stats.Elapsed = time.Since(start)
	return merged, stats, nil
}
