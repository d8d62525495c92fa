package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingMetrics tallies cache events for assertions.
type countingMetrics struct {
	hits, misses, coalesced, evicted atomic.Int64
	degradedHits                     atomic.Int64
	resident                         atomic.Int64
}

func (m *countingMetrics) Hit()             { m.hits.Add(1) }
func (m *countingMetrics) Miss()            { m.misses.Add(1) }
func (m *countingMetrics) Coalesced()       { m.coalesced.Add(1) }
func (m *countingMetrics) Evicted()         { m.evicted.Add(1) }
func (m *countingMetrics) Resident(b int64) { m.resident.Store(b) }
func (m *countingMetrics) DegradedHit()     { m.degradedHits.Add(1) }

func key(ds string, ver uint64, opt string) Key {
	return Key{Dataset: ds, Version: ver, Options: opt}
}

// sized returns a body of n bytes.
func sized(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

// fill runs a trivially-cacheable compute for key that returns body.
func fill(t *testing.T, c *Cache, k Key, body []byte) {
	t.Helper()
	got, cacheable, outcome, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
		return body, true, nil
	})
	if err != nil || !bytes.Equal(got, body) || !cacheable || outcome != Miss {
		t.Fatalf("fill %v: got %q cacheable %v outcome %v err %v", k, got, cacheable, outcome, err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	met := &countingMetrics{}
	c := New(1<<20, met)
	k := key("d", 1, "o")
	fill(t, c, k, []byte("v"))

	got, cacheable, outcome, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
		t.Fatal("compute ran on a hit")
		return nil, false, nil
	})
	if err != nil || string(got) != "v" || !cacheable || outcome != Hit {
		t.Fatalf("hit: got %q cacheable %v outcome %v err %v", got, cacheable, outcome, err)
	}
	if met.hits.Load() != 1 || met.misses.Load() != 1 {
		t.Errorf("metrics: hits=%d misses=%d", met.hits.Load(), met.misses.Load())
	}
}

// TestDegradedHitAccounting: hits served while the degraded probe
// reports true are additionally counted as DegradedHit; hits while
// healthy, and misses at any time, are not.
func TestDegradedHitAccounting(t *testing.T) {
	met := &countingMetrics{}
	c := New(1<<20, met)
	var degraded atomic.Bool
	c.SetDegraded(degraded.Load)
	k := key("d", 1, "o")
	fill(t, c, k, []byte("v"))

	hit := func() {
		t.Helper()
		if _, _, outcome, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
			return nil, false, errors.New("compute ran on a hit")
		}); err != nil || outcome != Hit {
			t.Fatalf("outcome %v err %v, want hit", outcome, err)
		}
	}
	hit() // healthy hit
	degraded.Store(true)
	hit() // degraded hit
	hit() // degraded hit
	degraded.Store(false)
	hit() // healthy again

	if got := met.hits.Load(); got != 4 {
		t.Errorf("hits = %d, want 4", got)
	}
	if got := met.degradedHits.Load(); got != 2 {
		t.Errorf("degraded hits = %d, want 2", got)
	}
}

// TestVersionBumpChangesKey: the same dataset+options at a new version
// is a distinct key — exact invalidation without any explicit purge.
func TestVersionBumpChangesKey(t *testing.T) {
	c := New(1<<20, nil)
	fill(t, c, key("d", 1, "o"), []byte("old"))

	ran := false
	got, _, outcome, _ := c.Do(context.Background(), key("d", 2, "o"), func() ([]byte, bool, error) {
		ran = true
		return []byte("new"), true, nil
	})
	if !ran || string(got) != "new" || outcome != Miss {
		t.Fatalf("bumped version served stale data: ran=%v got=%q outcome=%v", ran, got, outcome)
	}
}

func TestLRUEvictionByBudget(t *testing.T) {
	met := &countingMetrics{}
	// Room for two 100-byte bodies (+overhead each).
	c := New(2*(100+EntryOverhead), met)
	k1, k2, k3 := key("d", 1, "a"), key("d", 1, "b"), key("d", 1, "c")
	fill(t, c, k1, sized(100))
	fill(t, c, k2, sized(100))
	if _, ok := c.Get(k1); !ok { // touch k1 so k2 is coldest
		t.Fatal("k1 missing before eviction")
	}
	fill(t, c, k3, sized(100))

	if _, ok := c.Get(k2); ok {
		t.Error("coldest entry k2 survived past the budget")
	}
	for _, k := range []Key{k1, k3} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %v evicted out of LRU order", k)
		}
	}
	if met.evicted.Load() != 1 {
		t.Errorf("evicted = %d, want 1", met.evicted.Load())
	}
	if got, want := c.ResidentBytes(), int64(2*(100+EntryOverhead)); got != want {
		t.Errorf("resident = %d, want %d", got, want)
	}
	if met.resident.Load() != c.ResidentBytes() {
		t.Errorf("resident gauge %d != cache resident %d", met.resident.Load(), c.ResidentBytes())
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	c := New(2048, nil)
	fill(t, c, key("d", 1, "small"), sized(10))
	fill(t, c, key("d", 1, "big"), sized(10_000)) // over the whole budget

	if _, ok := c.Get(key("d", 1, "big")); ok {
		t.Error("oversized entry was admitted")
	}
	if _, ok := c.Get(key("d", 1, "small")); !ok {
		t.Error("admitting an oversized entry evicted an unrelated one")
	}
}

func TestNonCacheableNotStored(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")
	runs := 0
	for i := 0; i < 2; i++ {
		_, cacheable, outcome, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
			runs++
			return []byte("truncated"), false, nil
		})
		if err != nil || cacheable || outcome != Miss {
			t.Fatalf("run %d: cacheable %v outcome %v err %v", i, cacheable, outcome, err)
		}
	}
	if runs != 2 {
		t.Errorf("non-cacheable result was served from cache (runs=%d)", runs)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, _, _, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
			return nil, true, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("run %d: err %v, want boom", i, err)
		}
	}
	if c.Len() != 0 {
		t.Error("failed compute left a cache entry")
	}
}

// TestSingleFlight: N concurrent Do calls for one key run compute exactly
// once; one caller reports Miss, the rest Coalesced, and all share the
// body and its cacheable flag.
func TestSingleFlight(t *testing.T) {
	met := &countingMetrics{}
	c := New(1<<20, met)
	k := key("d", 7, "o")

	const n = 16
	var runs atomic.Int64
	release := make(chan struct{})
	type result struct {
		body      []byte
		cacheable bool
		outcome   Outcome
		err       error
	}
	results := make(chan result, n)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, ok, o, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
				runs.Add(1)
				<-release // hold the flight open so every caller coalesces
				return []byte("shared"), true, nil
			})
			results <- result{b, ok, o, err}
		}()
	}

	// Wait until all non-leader callers have joined the flight, then let
	// the leader finish. The coalesced metric ticks when a waiter joins.
	deadline := time.Now().Add(5 * time.Second)
	for met.coalesced.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers coalesced", met.coalesced.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var misses, coalesced int
	for r := range results {
		if r.err != nil || string(r.body) != "shared" || !r.cacheable {
			t.Fatalf("caller got %q cacheable %v err %v", r.body, r.cacheable, r.err)
		}
		switch r.outcome {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Errorf("unexpected outcome %v", r.outcome)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("compute ran %d times, want exactly 1", runs.Load())
	}
	if misses != 1 || coalesced != n-1 {
		t.Errorf("outcomes: %d miss / %d coalesced, want 1 / %d", misses, coalesced, n-1)
	}
}

func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c.Do(context.Background(), k, func() ([]byte, bool, error) {
			close(leaderIn)
			<-release
			return []byte("v"), true, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, _, outcome, err := c.Do(ctx, k, func() ([]byte, bool, error) {
		t.Error("waiter ran compute")
		return nil, false, nil
	})
	if !errors.Is(err, context.Canceled) || outcome != Coalesced {
		t.Errorf("cancelled waiter: outcome %v err %v", outcome, err)
	}
	close(release)
}

// TestComputePanicReleasesFlight: a panicking leader must not strand
// waiters or poison the key.
func TestComputePanicReleasesFlight(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")

	leaderIn := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the leader's own panic continues
		c.Do(context.Background(), k, func() ([]byte, bool, error) {
			close(leaderIn)
			time.Sleep(20 * time.Millisecond) // let the waiter join
			panic("injected")
		})
	}()
	<-leaderIn
	go func() {
		_, _, _, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
			return []byte("retry"), true, nil
		})
		waiterErr <- err
	}()

	select {
	case err := <-waiterErr:
		// The waiter either coalesced onto the doomed flight (and got
		// ErrComputeAborted) or arrived after the cleanup and computed
		// fresh (nil). Both are sound; hanging is the failure mode.
		if err != nil && !errors.Is(err, ErrComputeAborted) {
			t.Errorf("waiter err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after leader panic")
	}

	// The key must be usable again.
	got, _, _, err := c.Do(context.Background(), k, func() ([]byte, bool, error) {
		return []byte("after"), true, nil
	})
	if err != nil || (string(got) != "after" && string(got) != "retry") {
		t.Errorf("key poisoned after panic: got %q err %v", got, err)
	}
}

func TestInvalidateDataset(t *testing.T) {
	c := New(1<<20, nil)
	fill(t, c, key("a", 1, "x"), sized(10))
	fill(t, c, key("a", 1, "y"), sized(10))
	fill(t, c, key("b", 1, "x"), sized(10))

	if n := c.InvalidateDataset("a"); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if _, ok := c.Get(key("a", 1, "x")); ok {
		t.Error("invalidated entry still served")
	}
	if _, ok := c.Get(key("b", 1, "x")); !ok {
		t.Error("unrelated dataset invalidated")
	}
	if got, want := c.ResidentBytes(), int64(10+EntryOverhead); got != want {
		t.Errorf("resident = %d, want %d", got, want)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines across
// overlapping keys; run under -race this is the data-race gate.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(4*(64+EntryOverhead), nil) // tight budget so eviction churns
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("d%d", i%3), uint64(i%5), "o")
				switch i % 7 {
				case 5:
					c.InvalidateDataset(k.Dataset)
				case 6:
					c.Get(k)
				default:
					c.Do(context.Background(), k, func() ([]byte, bool, error) {
						return sized(64), i%2 == 0, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
}
