package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tpminer/internal/baseline"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// randomDB builds a small random interval database. Symbols are drawn
// from a small alphabet so that overlaps and repeats are common.
func randomDB(rng *rand.Rand, nSeq, maxIvs, nSyms int, horizon int64) *interval.Database {
	db := &interval.Database{}
	for s := 0; s < nSeq; s++ {
		n := 1 + rng.Intn(maxIvs)
		seq := interval.Sequence{ID: fmt.Sprintf("s%d", s)}
		for i := 0; i < n; i++ {
			start := rng.Int63n(horizon)
			dur := rng.Int63n(horizon / 2)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + rng.Intn(nSyms))),
				Start:  start,
				End:    start + dur,
			})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db
}

// pruningConfigs enumerates every combination of the four ablation
// switches.
func pruningConfigs(base core.Options) []core.Options {
	var out []core.Options
	for mask := 0; mask < 16; mask++ {
		o := base
		o.DisableGlobalPruning = mask&1 != 0
		o.DisablePairPruning = mask&2 != 0
		o.DisablePostfixPruning = mask&4 != 0
		o.DisableSizePruning = mask&8 != 0
		out = append(out, o)
	}
	return out
}

// TestTemporalMinerMatchesOracle cross-checks P-TPMiner against the
// brute-force oracle on randomized databases, for every combination of
// pruning switches, under raw occurrence-labelled semantics.
func TestTemporalMinerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 4+rng.Intn(5), 5, 3, 20)
		minCount := 2
		base := core.Options{MinCount: minCount, KeepOccurrences: true}

		want, _, err := baseline.BruteForceTemporal(db, base)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		for _, opt := range pruningConfigs(base) {
			got, _, err := core.MineTemporal(db, opt)
			if err != nil {
				t.Fatalf("trial %d: miner: %v", trial, err)
			}
			if !pattern.TemporalResultsEqual(got, want) {
				t.Fatalf("trial %d (opts %+v): miner and oracle disagree:\nminer: %d patterns %v\noracle: %d patterns %v\ndb: %v",
					trial, opt, len(got), got, len(want), want, db.Sequences)
			}
		}
	}
}

// TestCoincidenceMinerMatchesOracle cross-checks coincidence mining
// against the brute-force oracle.
func TestCoincidenceMinerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 4+rng.Intn(5), 5, 3, 20)
		base := core.Options{MinCount: 2}

		want, _, err := baseline.BruteForceCoincidence(db, base)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		for _, opt := range pruningConfigs(base) {
			got, _, err := core.MineCoincidence(db, opt)
			if err != nil {
				t.Fatalf("trial %d: miner: %v", trial, err)
			}
			if !pattern.CoincResultsEqual(got, want) {
				t.Fatalf("trial %d (opts %+v): miner and oracle disagree:\nminer: %d %v\noracle: %d %v\ndb: %v",
					trial, opt, len(got), got, len(want), want, db.Sequences)
			}
		}
	}
}

// TestTPrefixSpanMatchesOracle cross-checks the placement-enumeration
// baseline against the oracle (normalized results, since both merge
// occurrence labelings identically).
func TestTPrefixSpanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		db := randomDB(rng, 4+rng.Intn(4), 4, 3, 16)
		opt := core.Options{MinCount: 2, KeepOccurrences: true}

		want, _, err := baseline.BruteForceTemporal(db, opt)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		got, _, err := baseline.TPrefixSpan(db, opt)
		if err != nil {
			t.Fatalf("trial %d: tprefixspan: %v", trial, err)
		}
		if !pattern.TemporalResultsEqual(got, want) {
			t.Fatalf("trial %d: tprefixspan and oracle disagree:\ntps: %d %v\noracle: %d %v\ndb: %v",
				trial, len(got), got, len(want), want, db.Sequences)
		}
	}
}

// TestAprioriMatchesOracle cross-checks both Apriori baselines.
func TestAprioriMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		db := randomDB(rng, 4+rng.Intn(4), 4, 3, 16)
		opt := core.Options{MinCount: 2, KeepOccurrences: true}

		wantT, _, err := baseline.BruteForceTemporal(db, opt)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		gotT, _, err := baseline.AprioriTemporal(db, opt)
		if err != nil {
			t.Fatalf("trial %d: apriori temporal: %v", trial, err)
		}
		if !pattern.TemporalResultsEqual(gotT, wantT) {
			t.Fatalf("trial %d: apriori temporal disagrees:\napriori: %d %v\noracle: %d %v\ndb: %v",
				trial, len(gotT), gotT, len(wantT), wantT, db.Sequences)
		}

		wantC, _, err := baseline.BruteForceCoincidence(db, opt)
		if err != nil {
			t.Fatalf("trial %d: coinc oracle: %v", trial, err)
		}
		gotC, _, err := baseline.AprioriCoincidence(db, opt)
		if err != nil {
			t.Fatalf("trial %d: apriori coincidence: %v", trial, err)
		}
		if !pattern.CoincResultsEqual(gotC, wantC) {
			t.Fatalf("trial %d: apriori coincidence disagrees:\napriori: %d %v\noracle: %d %v\ndb: %v",
				trial, len(gotC), gotC, len(wantC), wantC, db.Sequences)
		}
	}
}
