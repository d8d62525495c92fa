package server

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"tpminer/internal/persist"
)

// TestIngestOverflowShedsOldest: when the age flush fails and more than
// 8×IngestFlushCount events are buffered, the oldest events are dropped,
// the newest stay buffered for the next attempt, and every dropped event
// is counted in tpmd_ingest_rejected_total.
func TestIngestOverflowShedsOldest(t *testing.T) {
	inj := &blackoutInjector{}
	ps, err := persist.Open(t.TempDir(), persist.Options{Injector: inj, Retry: noBackoff})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	t.Cleanup(func() { _ = ps.Close() })
	const flushCount = 4
	s := NewWithConfig(nil, Config{
		Persist:          ps,
		IngestFlushCount: flushCount,
		IngestFlushAge:   time.Hour, // only the direct ageFlush call below flushes
	})
	t.Cleanup(s.Close)

	rejected := func() float64 {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
		return parseMetrics(t, rec.Body.String())["tpmd_ingest_rejected_total"]
	}
	before := rejected()

	const capacity, extra = 8 * flushCount, 5
	events := make([]ingestEvent, capacity+extra)
	for i := range events {
		events[i] = ingestEvent{Seq: fmt.Sprintf("s%d", i), Symbol: "A", Start: int64(i), End: int64(i + 1)}
	}
	b, ok := s.ingest.batcher("d")
	if !ok {
		t.Fatal("ingest pool closed")
	}
	inj.on.Store(true)
	b.mu.Lock()
	b.pending = append([]ingestEvent(nil), events...)
	b.mu.Unlock()
	b.ageFlush()

	b.mu.Lock()
	got := append([]ingestEvent(nil), b.pending...)
	b.mu.Unlock()
	if len(got) != capacity {
		t.Fatalf("%d events buffered after overflow, want %d", len(got), capacity)
	}
	for i, ev := range got {
		if want := events[extra+i]; ev != want {
			t.Fatalf("buffered event %d = %+v, want %+v (the newest must survive)", i, ev, want)
		}
	}
	if d := rejected() - before; d != extra {
		t.Errorf("tpmd_ingest_rejected_total grew by %v, want %d", d, extra)
	}
}
