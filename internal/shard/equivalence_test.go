package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/shard"
)

// randomDB builds a small random interval database (same construction as
// the core equivalence suite, so the two suites stress comparable data).
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

func coordinatorFor(db *interval.Database, shards int) *shard.Coordinator {
	return shard.NewLocal(db, shard.New(db, shards, 1))
}

// shardCounts is the equivalence matrix from the issue: 1 (degenerate),
// 2, 3 (odd, uneven splits), 8 (more shards than some tests have
// heavily-loaded sequences).
var shardCounts = []int{1, 2, 3, 8}

// sameTemporal asserts exact equality including ordering — the issue
// requires the sharded output to be byte-identical to the serial miner,
// not merely set-equal.
func sameTemporal(t *testing.T, label string, got, want []pattern.TemporalResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Pattern.Key() != want[i].Pattern.Key() || got[i].Support != want[i].Support {
			t.Fatalf("%s: result %d is %s/%d, want %s/%d",
				label, i, got[i].Pattern.Key(), got[i].Support, want[i].Pattern.Key(), want[i].Support)
		}
	}
}

func sameCoinc(t *testing.T, label string, got, want []pattern.CoincResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Pattern.Key() != want[i].Pattern.Key() || got[i].Support != want[i].Support {
			t.Fatalf("%s: result %d is %s/%d, want %s/%d",
				label, i, got[i].Pattern.Key(), got[i].Support, want[i].Pattern.Key(), want[i].Support)
		}
	}
}

// TestShardedMatchesSerial: for every shard count the coordinator's
// output must be identical — patterns, supports, and ordering — to the
// serial miner, in both raw and normalized semantics and across
// threshold styles and span/gap/shape constraints (the constraints
// exercise the support-completion matcher).
func TestShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	optionSets := []core.Options{
		{MinCount: 3},
		{MinSupport: 0.15},
		{MinCount: 2, MaxSpan: 15, MaxGap: 8},
		{MinCount: 2, MaxIntervals: 3, MaxElements: 4, MaxItemsPerElement: 2},
	}
	for trial := 0; trial < 4; trial++ {
		db := randomDB(rng, 20, 6, 4, 30)
		for oi, base := range optionSets {
			for _, keepOcc := range []bool{true, false} {
				serial := base
				serial.KeepOccurrences = keepOcc
				wantT, _, err := core.MineTemporal(db, serial)
				if err != nil {
					t.Fatal(err)
				}
				wantC, _, err := core.MineCoincidence(db, serial)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range shardCounts {
					co := coordinatorFor(db, shards)
					label := fmt.Sprintf("trial %d opts %d keepOcc=%v shards=%d", trial, oi, keepOcc, shards)

					gotT, _, err := co.MineTemporal(context.Background(), serial)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameTemporal(t, label+" temporal", gotT, wantT)

					gotC, _, err := co.MineCoincidence(context.Background(), serial)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameCoinc(t, label+" coincidence", gotC, wantC)
				}
			}
		}
	}
}

// TestShardedClosedMaximal: the closed/maximal post-filters are
// downstream of mining, so running them on sharded results must match
// the serial pipeline for every shard count.
func TestShardedClosedMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3; trial++ {
		db := randomDB(rng, 20, 6, 4, 30)
		serial := core.Options{MinCount: 3}
		rsSerial, _, err := core.MineTemporal(db, serial)
		if err != nil {
			t.Fatal(err)
		}
		wantClosed := core.FilterClosed(rsSerial)
		wantMaximal := core.FilterMaximal(rsSerial)

		for _, shards := range shardCounts {
			co := coordinatorFor(db, shards)
			rs, _, err := co.MineTemporal(context.Background(), serial)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d shards=%d", trial, shards)
			sameTemporal(t, label+" closed", core.FilterClosed(rs), wantClosed)
			sameTemporal(t, label+" maximal", core.FilterMaximal(rs), wantMaximal)
		}
	}
}

// TestShardedTopKMatchesSerial: the two-phase sharded top-k must return
// exactly the serial top-k result for every shard count and k.
func TestShardedTopKMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		db := randomDB(rng, 20, 6, 4, 30)
		for _, k := range []int{1, 5, 25} {
			for _, keepOcc := range []bool{true, false} {
				serial := core.Options{MinCount: 2, KeepOccurrences: keepOcc}
				wantT, _, err := core.MineTemporalTopK(db, k, serial)
				if err != nil {
					t.Fatal(err)
				}
				wantC, _, err := core.MineCoincidenceTopK(db, k, serial)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range shardCounts {
					co := coordinatorFor(db, shards)
					label := fmt.Sprintf("trial %d k=%d keepOcc=%v shards=%d", trial, k, keepOcc, shards)

					gotT, _, err := co.MineTemporalTopK(context.Background(), k, serial)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameTemporal(t, label+" temporal", gotT, wantT)

					gotC, _, err := co.MineCoincidenceTopK(context.Background(), k, serial)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameCoinc(t, label+" coincidence", gotC, wantC)
				}
			}
		}
	}
}

// blockingWorker blocks in Mine until its context is canceled, proving
// the coordinator both propagates cancellation and joins every fan-out
// goroutine before returning.
type blockingWorker struct {
	entered chan struct{}
}

func (w *blockingWorker) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	w.entered <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (w *blockingWorker) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancelMidFanOutLeaksNoGoroutines cancels a mine while every shard
// is mid-flight and asserts the call returns the cancellation error with
// all fan-out goroutines gone. Run under -race this also proves the
// response/error slices are safely published across the join.
func TestCancelMidFanOutLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	bw := &blockingWorker{entered: make(chan struct{}, 4)}
	co := &shard.Coordinator{
		Workers: []shard.Worker{bw, bw, bw, bw},
		Sizes:   []int{5, 5, 5, 5},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := co.MineTemporal(ctx, core.Options{MinCount: 2})
		done <- err
	}()
	for i := 0; i < 4; i++ {
		<-bw.entered
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mine did not return after cancellation")
	}

	// Goroutine counts settle asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelRealMinersNoLeak repeats the cancellation drill against real
// shard miners on a non-trivial database.
func TestCancelRealMinersNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := randomDB(rng, 40, 8, 3, 40)
	co := coordinatorFor(db, 4)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := co.MineTemporal(ctx, core.Options{MinCount: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLocalBoundSoundness checks the pigeonhole property the pruning
// soundness rests on: if a pattern's support is below the local bound on
// every shard, the supports cannot sum to minCount.
func TestLocalBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		minCount := 1 + rng.Intn(n)
		k := 1 + rng.Intn(8)
		sizes := make([]int, k)
		left := n
		for i := 0; i < k-1; i++ {
			sizes[i] = rng.Intn(left + 1)
			left -= sizes[i]
		}
		sizes[k-1] = left

		worst := 0
		for _, ni := range sizes {
			b := shard.LocalBound(minCount, ni, n)
			if b < 1 {
				t.Fatalf("bound %d < 1", b)
			}
			worst += b - 1 // max support a silent shard can hide
		}
		if worst >= minCount {
			t.Fatalf("n=%d k=%d minCount=%d sizes=%v: silent shards could hide support %d >= minCount",
				n, k, minCount, sizes, worst)
		}
	}
}
