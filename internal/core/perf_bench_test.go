package core

import (
	"context"
	"testing"
	"time"

	"tpminer/internal/gen"
	"tpminer/internal/interval"
	"tpminer/internal/seqdb"
)

// Micro-benchmarks of the mining hot path — projection and candidate
// counting in isolation. They are what the dense position index and the
// depth-indexed projection pools optimize; run them with -benchmem to
// see the allocation counts.

func benchDB(b *testing.B) *interval.Database {
	b.Helper()
	db, _, err := gen.Quest(gen.QuestConfig{
		NumSequences: 200,
		AvgIntervals: 8,
		NumSymbols:   40,
		Seed:         42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// benchTemporalMiner builds a ready-to-search miner plus the candidates
// of the root node.
func benchTemporalMiner(b *testing.B, opt Options) (*temporalMiner, []projEntry, []candidate) {
	b.Helper()
	db := benchDB(b)
	minCount, err := opt.resolveMinCount(db.Len())
	if err != nil {
		b.Fatal(err)
	}
	enc, err := seqdb.EncodeEndpointDB(db)
	if err != nil {
		b.Fatal(err)
	}
	enc.FilterInfrequent(minCount)
	ctl := newRunControl(context.Background(), opt, time.Now())
	m := newTemporalMiner(enc, opt, minCount, ctl)
	proj := initialTemporalProjection(enc)
	cands := m.countCandidates(proj, true, false, true)
	if len(cands) == 0 {
		b.Fatal("no frequent root candidates")
	}
	return m, proj, cands
}

// BenchmarkProjectTemporal measures one root-level projection: a single
// dense-index lookup per projected sequence plus the P3 postfix check.
func BenchmarkProjectTemporal(b *testing.B) {
	m, proj, cands := benchTemporalMiner(b, Options{MinSupport: 0.04})
	c := cands[len(cands)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.project(proj, c, 0)
	}
}

// BenchmarkCountTemporal measures one root-level candidate-counting scan.
func BenchmarkCountTemporal(b *testing.B) {
	m, proj, _ := benchTemporalMiner(b, Options{MinSupport: 0.04})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.countCandidates(proj, true, false, true)
	}
}

// BenchmarkProjectCoinc measures one root-level coincidence projection
// through the posting-list occurrence index.
func BenchmarkProjectCoinc(b *testing.B) {
	db := benchDB(b)
	opt := Options{MinSupport: 0.04}
	minCount, err := opt.resolveMinCount(db.Len())
	if err != nil {
		b.Fatal(err)
	}
	enc, err := seqdb.EncodeCoincidenceDB(db)
	if err != nil {
		b.Fatal(err)
	}
	enc.FilterInfrequent(minCount)
	ctl := newRunControl(context.Background(), opt, time.Now())
	m := newCoincMiner(enc, opt, minCount, ctl)
	proj := initialCoincProjection(enc)
	cands := m.countCandidates(proj, true, false)
	if len(cands) == 0 {
		b.Fatal("no frequent root candidates")
	}
	c := cands[len(cands)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.project(proj, c, 0)
	}
}
