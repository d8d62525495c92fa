package core

import (
	"context"
	"sort"
	"time"

	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// MineCoincidence discovers all frequent coincidence patterns of the
// database. Results are sorted deterministically. Unlike temporal
// mining, the same symbol may appear in many segments of a sequence, so
// the miner uses full PrefixSpan semantics with earliest-match
// projection. Prunings P2/P3 are endpoint-specific and do not apply;
// P1 and P4 do.
func MineCoincidence(db *interval.Database, opt Options) ([]pattern.CoincResult, Stats, error) {
	return MineCoincidenceCtx(context.Background(), db, opt)
}

// MineCoincidenceCtx is MineCoincidence with cooperative cancellation
// and resource budgets; see MineTemporalCtx for the contract.
func MineCoincidenceCtx(ctx context.Context, db *interval.Database, opt Options) ([]pattern.CoincResult, Stats, error) {
	return mineCoincidence(ctx, db, opt, 0)
}

// mineCoincidence is the one coincidence search; see mineTemporal for
// the meaning of k.
func mineCoincidence(ctx context.Context, db *interval.Database, opt Options, k int) ([]pattern.CoincResult, Stats, error) {
	start := time.Now()
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	minCount, err := opt.resolveMinCount(db.Len())
	if err != nil {
		return nil, Stats{}, err
	}
	enc, err := seqdb.EncodeCoincidenceDB(db)
	if err != nil {
		return nil, Stats{}, err
	}

	ctl := newRunControl(ctx, opt, start)
	stats := Stats{Sequences: db.Len(), MinCount: minCount}
	if !opt.DisableGlobalPruning {
		stats.ItemsRemoved = enc.FilterInfrequent(minCount) // P1
	}

	m := newCoincMiner(enc, opt, minCount, ctl)
	m.stats = stats
	limit := opt.MaxPatterns
	if k > 0 {
		m.topk = newTopKState(k, false)
		limit = k
	}
	m.mine(initialCoincProjection(enc), 0)
	results := m.results
	stats = m.stats

	err, stats.Truncated, stats.TruncatedBy = ctl.finish()
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}

	pattern.SortCoincResults(results)
	if limit > 0 && len(results) > limit {
		results = results[:limit]
	}
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}

// coincProjEntry is one sequence of a coincidence pseudo-projection:
// loc is the earliest match of the prefix's last element, pointing at its
// maximum item (Slice == -1 for the empty prefix). Because elements are
// matched greedily earliest, loc alone determines where extensions may
// match: I-extensions from loc.Slice onward, S-extensions strictly after.
type coincProjEntry struct {
	seq int32
	loc seqdb.Loc
}

func initialCoincProjection(db *seqdb.CoincDB) []coincProjEntry {
	proj := make([]coincProjEntry, len(db.Seqs))
	for i := range proj {
		proj[i] = coincProjEntry{seq: int32(i), loc: seqdb.Loc{Slice: -1, Idx: -1}}
	}
	return proj
}

type coincMiner struct {
	db       *seqdb.CoincDB
	opt      Options
	minCount int
	stats    Stats
	results  []pattern.CoincResult

	elems [][]seqdb.Item

	countsS, countsI   []int32
	touchedS, touchedI []seqdb.Item
	stampS, stampI     []int64
	tok                int64

	// projPool holds one reusable projection buffer per search depth;
	// see temporalMiner.projPool.
	projPool [][]coincProjEntry

	// ctl is the run-wide cancellation/budget state; ops counts local
	// work units between polls.
	ctl *runControl
	ops int64

	// topk, when non-nil, raises minCount dynamically (top-k mining).
	topk *topKState
}

func newCoincMiner(db *seqdb.CoincDB, opt Options, minCount int, ctl *runControl) *coincMiner {
	n := db.Table.Len()
	return &coincMiner{
		db:       db,
		opt:      opt,
		minCount: minCount,
		ctl:      ctl,
		countsS:  make([]int32, n),
		countsI:  make([]int32, n),
		stampS:   make([]int64, n),
		stampI:   make([]int64, n),
	}
}

// tick counts one unit of search work, polls the run control every
// pollInterval units, and reports whether the search must stop.
func (m *coincMiner) tick() bool {
	m.ops++
	if m.ops&(pollInterval-1) == 0 {
		m.ctl.poll()
	}
	return m.ctl.stop.Load()
}

func (m *coincMiner) mine(proj []coincProjEntry, depth int) {
	if m.tick() {
		return
	}
	m.stats.Nodes++
	if len(m.elems) > 0 {
		m.emit(proj)
	}
	if !m.opt.DisableSizePruning && len(proj) < m.minCount { // P4
		m.stats.SizePruned++
		return
	}

	canS := m.opt.MaxElements == 0 || len(m.elems) < m.opt.MaxElements
	canI := len(m.elems) > 0 &&
		(m.opt.MaxItemsPerElement == 0 || len(m.elems[len(m.elems)-1]) < m.opt.MaxItemsPerElement)
	if !canS && !canI {
		return
	}

	cands := m.countCandidates(proj, canS, canI)
	for _, c := range cands {
		if m.ctl.stop.Load() {
			return
		}
		m.extend(proj, c, depth)
	}
}

// countCandidates scans the projection and returns frequent extensions.
// Per-sequence deduplication uses monotonic stamps so the counter arrays
// never need clearing between sequences.
func (m *coincMiner) countCandidates(proj []coincProjEntry, canS, canI bool) []candidate {
	var lastElem []seqdb.Item
	var maxItem seqdb.Item = -1
	if len(m.elems) > 0 {
		lastElem = m.elems[len(m.elems)-1]
		maxItem = lastElem[len(lastElem)-1]
	}
	for i := range proj {
		if m.tick() {
			break // aborting: mine() rechecks before any recursion
		}
		pe := &proj[i]
		m.stats.CandidateScans++
		m.tok++
		seq := &m.db.Seqs[pe.seq]
		if canI && pe.loc.Slice >= 0 {
			// Remainder of the earliest-match slice.
			sl := &seq.Slices[pe.loc.Slice]
			for ii := int(pe.loc.Idx) + 1; ii < len(sl.Items); ii++ {
				m.countI(sl.Items[ii])
			}
			// Later slices that contain the whole last element.
			for ci := int(pe.loc.Slice) + 1; ci < len(seq.Slices); ci++ {
				items := seq.Slices[ci].Items
				if !containsItems(items, lastElem) {
					continue
				}
				for _, it := range items {
					if it > maxItem {
						m.countI(it)
					}
				}
			}
		}
		if canS {
			for ci := int(pe.loc.Slice) + 1; ci < len(seq.Slices); ci++ {
				for _, it := range seq.Slices[ci].Items {
					m.countS(it)
				}
			}
		}
	}

	cands := make([]candidate, 0, len(m.touchedS)+len(m.touchedI))
	for _, it := range m.touchedS {
		if c := m.countsS[it]; int(c) >= m.minCount {
			cands = append(cands, candidate{item: it, isI: false, count: c})
		}
		m.countsS[it] = 0
	}
	for _, it := range m.touchedI {
		if c := m.countsI[it]; int(c) >= m.minCount {
			cands = append(cands, candidate{item: it, isI: true, count: c})
		}
		m.countsI[it] = 0
	}
	m.touchedS = m.touchedS[:0]
	m.touchedI = m.touchedI[:0]
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].isI != cands[j].isI {
			return !cands[i].isI
		}
		return cands[i].item < cands[j].item
	})
	return cands
}

func (m *coincMiner) countS(it seqdb.Item) {
	if m.stampS[it] == m.tok {
		return
	}
	m.stampS[it] = m.tok
	if m.countsS[it] == 0 {
		m.touchedS = append(m.touchedS, it)
	}
	m.countsS[it]++
}

func (m *coincMiner) countI(it seqdb.Item) {
	if m.stampI[it] == m.tok {
		return
	}
	m.stampI[it] = m.tok
	if m.countsI[it] == 0 {
		m.touchedI = append(m.touchedI, it)
	}
	m.countsI[it]++
}

// containsItems reports whether the sorted item list haystack contains
// every element of the sorted item list needle.
func containsItems(haystack, needle []seqdb.Item) bool {
	i := 0
	for _, w := range needle {
		for i < len(haystack) && haystack[i] < w {
			i++
		}
		if i >= len(haystack) || haystack[i] != w {
			return false
		}
		i++
	}
	return true
}

// extend projects for candidate c, applies it to the prefix, recurses,
// and restores the prefix.
func (m *coincMiner) extend(proj []coincProjEntry, c candidate, depth int) {
	next := m.project(proj, c, depth)
	if c.isI {
		last := len(m.elems) - 1
		m.elems[last] = append(m.elems[last], c.item)
	} else {
		m.elems = append(m.elems, []seqdb.Item{c.item})
	}
	m.mine(next, depth+1)
	if c.isI {
		last := len(m.elems) - 1
		m.elems[last] = m.elems[last][:len(m.elems[last])-1]
	} else {
		m.elems = m.elems[:len(m.elems)-1]
	}
}

// project computes the earliest-match projection for prefix + c using
// the posting-list index: instead of scanning every later slice, it
// walks only the slices that actually contain c.item. It must run before
// the prefix mutation (it reads the current last element). The returned
// slice is a depth-pooled buffer owned by the miner.
func (m *coincMiner) project(proj []coincProjEntry, c candidate, depth int) []coincProjEntry {
	var lastElem []seqdb.Item
	if len(m.elems) > 0 {
		lastElem = m.elems[len(m.elems)-1]
	}
	for len(m.projPool) <= depth {
		m.projPool = append(m.projPool, nil)
	}
	out := m.projPool[depth][:0]
	if cap(out) < int(c.count) {
		out = make([]coincProjEntry, 0, int(c.count))
	}
	for i := range proj {
		if m.tick() {
			break // aborting: the recursion on the partial projection is cut at entry
		}
		pe := &proj[i]
		posts := m.db.Occ.Slices(pe.seq, c.item)
		if c.isI {
			// Earliest slice containing lastElem ∪ {item}, at or after
			// the stored earliest match of lastElem. The new item has a
			// larger id than every lastElem member, so within loc.Slice
			// it can only sit after loc.Idx; in later slices the whole
			// last element must re-match.
			seq := &m.db.Seqs[pe.seq]
			for k := lowerBound32(posts, pe.loc.Slice); k < len(posts); k++ {
				ci := posts[k]
				items := seq.Slices[ci].Items
				if ci > pe.loc.Slice && !containsItems(items, lastElem) {
					continue
				}
				out = append(out, coincProjEntry{
					seq: pe.seq,
					loc: seqdb.Loc{Slice: ci, Idx: int32(findItem(items, c.item))},
				})
				break
			}
		} else {
			// Earliest slice strictly after the match containing c.item:
			// the first posting past loc.Slice.
			if k := lowerBound32(posts, pe.loc.Slice+1); k < len(posts) {
				ci := posts[k]
				items := m.db.Seqs[pe.seq].Slices[ci].Items
				out = append(out, coincProjEntry{
					seq: pe.seq,
					loc: seqdb.Loc{Slice: ci, Idx: int32(findItem(items, c.item))},
				})
			}
		}
	}
	m.projPool[depth] = out // keep any growth for reuse
	return out
}

// lowerBound32 returns the index of the first element of the ascending
// slice a that is >= x, or len(a).
func lowerBound32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findItem returns the index of it in the sorted item list, or -1.
func findItem(items []seqdb.Item, it seqdb.Item) int {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid] < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && items[lo] == it {
		return lo
	}
	return -1
}

func (m *coincMiner) emit(proj []coincProjEntry) {
	m.stats.Emitted++
	els := make([][]string, len(m.elems))
	for i, el := range m.elems {
		syms := make([]string, len(el))
		for j, it := range el {
			syms[j] = m.db.Table.Symbol(it)
		}
		els[i] = syms
	}
	res := pattern.CoincResult{
		Pattern: pattern.NewCoinc(els...),
		Support: len(proj),
	}
	m.results = append(m.results, res)
	m.ctl.noteEmit()
	if m.topk != nil {
		m.minCount = m.topk.observe(res.Pattern.Key(), res.Support, m.minCount)
	}
}
