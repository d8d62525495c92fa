// Benchmark harness: one benchmark family per table/figure of the
// evaluation (see DESIGN.md, "Evaluation plan"). Each family reproduces
// the corresponding experiment's series points as sub-benchmarks at the
// Quick scale, so
//
//	go test -bench=Fig1a -benchmem
//
// regenerates the Fig 1a series. The aligned full tables (including the
// Paper scale) are produced by cmd/experiments, which shares all code
// with these benchmarks through internal/experiment.
package tpminer_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"tpminer/internal/baseline"
	"tpminer/internal/core"
	"tpminer/internal/experiment"
	"tpminer/internal/gen"
	"tpminer/internal/incremental"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/remote"
	"tpminer/internal/shard"
)

// benchScale is the workload sizing used by the whole bench suite.
var benchScale = experiment.Quick

func benchQuestDB(b *testing.B, d, c int) *interval.Database {
	b.Helper()
	cfg := gen.QuestConfig{
		NumSequences: d,
		AvgIntervals: c,
		NumSymbols:   benchScale.N,
		Seed:         benchScale.Seed,
	}
	db, _, err := gen.Quest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchOpts(minSup float64) core.Options {
	return core.Options{MinSupport: minSup, MaxIntervals: benchScale.MaxIntervals}
}

type namedTemporalMiner struct {
	name string
	mine experiment.TemporalMiner
}

var temporalMiners = []namedTemporalMiner{
	{"P-TPMiner", core.MineTemporal},
	{"TPrefixSpan", baseline.TPrefixSpan},
	{"Apriori", baseline.AprioriTemporal},
}

// BenchmarkFig1aRuntimeVsMinsup — runtime vs. minimum support for
// temporal patterns: P-TPMiner against both baselines.
func BenchmarkFig1aRuntimeVsMinsup(b *testing.B) {
	db := benchQuestDB(b, benchScale.D, benchScale.C)
	for _, m := range temporalMiners {
		for _, s := range benchScale.MinSups {
			b.Run(fmt.Sprintf("%s/minsup=%g", m.name, s), func(b *testing.B) {
				opt := benchOpts(s)
				var patterns int
				for i := 0; i < b.N; i++ {
					rs, _, err := m.mine(db, opt)
					if err != nil {
						b.Fatal(err)
					}
					patterns = len(rs)
				}
				b.ReportMetric(float64(patterns), "patterns")
			})
		}
	}
}

// BenchmarkFig1aSharded — the Fig-1a temporal workload mined through the
// scatter-gather shard coordinator at increasing shard counts, with the
// plain serial miner as the unsharded reference. shards=1 measures pure
// coordinator overhead (one worker, no merge work beyond a pass-through),
// so cmd/benchjson gates it at ≥0.95x of unsharded; higher counts show
// the multi-core scaling headroom (≈1x on a single-core runner, where
// the equivalence suite still proves the merge exact). The database is
// the largest Fig-2a point rather than the Fig-1a base: the partition-
// aware local bound is ceil(minsup·n_i), so shards need enough
// sequences for that to stay selective — 100 sequences per shard at
// shards=8, matching the shard-min-seqs guidance (a 200-sequence
// database split 8 ways would mine 25-sequence shards at bound 1,
// i.e. its full lattice).
func BenchmarkFig1aSharded(b *testing.B) {
	db := benchQuestDB(b, benchScale.DBSizes[len(benchScale.DBSizes)-1], benchScale.C)
	opt := benchOpts(0.04)
	ctx := context.Background()
	b.Run("unsharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.MineTemporal(db, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{1, 2, 4, 8} {
		co := shard.NewLocal(db, shard.New(db, k, 1))
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			var patterns int
			for i := 0; i < b.N; i++ {
				rs, _, err := co.MineTemporal(ctx, opt)
				if err != nil {
					b.Fatal(err)
				}
				patterns = len(rs)
			}
			b.ReportMetric(float64(patterns), "patterns")
		})
	}
}

// BenchmarkFig1aRemote — the Fig-1a temporal workload mined through
// remote HTTP workers over loopback, against the in-process sharded run
// as reference. Every iteration pays the full wire cost (JSON mine
// requests and responses) but the shard push happens once per worker at
// setup — the content-addressed cache makes re-pushes free, which is
// what a warm production deployment sees. workers=N splits the shards
// across N worker servers; the gap to shards=N in BenchmarkFig1aSharded
// is the HTTP tax on this dataset.
func BenchmarkFig1aRemote(b *testing.B) {
	db := benchQuestDB(b, benchScale.DBSizes[len(benchScale.DBSizes)-1], benchScale.C)
	opt := benchOpts(0.04)
	ctx := context.Background()
	const shards = 4
	part := shard.New(db, shards, 1)
	for _, nw := range []int{1, 2, 4} {
		urls := make([]string, nw)
		for i := range urls {
			ts := httptest.NewServer(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
			defer ts.Close()
			urls[i] = ts.URL
		}
		pool := remote.NewPool(urls, remote.PoolConfig{
			Registry: remote.RegistryConfig{ProbeInterval: -1},
		})
		defer pool.Close()
		co := pool.Coordinator("bench", 1, db, part)
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			var patterns int
			for i := 0; i < b.N; i++ {
				rs, _, err := co.MineTemporal(ctx, opt)
				if err != nil {
					b.Fatal(err)
				}
				patterns = len(rs)
			}
			b.ReportMetric(float64(patterns), "patterns")
		})
	}
}

// BenchmarkFig1bRuntimeVsMinsupCoincidence — runtime vs. minimum support
// for coincidence patterns.
func BenchmarkFig1bRuntimeVsMinsupCoincidence(b *testing.B) {
	db := benchQuestDB(b, benchScale.D, benchScale.C)
	miners := []struct {
		name string
		mine experiment.CoincMiner
	}{
		{"P-TPMiner", core.MineCoincidence},
		{"Apriori", baseline.AprioriCoincidence},
	}
	for _, m := range miners {
		for _, s := range benchScale.MinSups {
			b.Run(fmt.Sprintf("%s/minsup=%g", m.name, s), func(b *testing.B) {
				opt := benchOpts(s)
				var patterns int
				for i := 0; i < b.N; i++ {
					rs, _, err := m.mine(db, opt)
					if err != nil {
						b.Fatal(err)
					}
					patterns = len(rs)
				}
				b.ReportMetric(float64(patterns), "patterns")
			})
		}
	}
}

// BenchmarkFig2aScalabilityDBSize — runtime vs. |D| at fixed support,
// P-TPMiner against TPrefixSpan. BenchmarkFig1aSharded is the multi-core
// series.
func BenchmarkFig2aScalabilityDBSize(b *testing.B) {
	const minSup = 0.05
	for _, d := range benchScale.DBSizes {
		db := benchQuestDB(b, d, benchScale.C)
		b.Run(fmt.Sprintf("P-TPMiner/D=%d", d), func(b *testing.B) {
			opt := benchOpts(minSup)
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MineTemporal(db, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("TPrefixSpan/D=%d", d), func(b *testing.B) {
			opt := benchOpts(minSup)
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.TPrefixSpan(db, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2bScalabilitySeqLen — runtime vs. average sequence length
// |C| at fixed support.
func BenchmarkFig2bScalabilitySeqLen(b *testing.B) {
	const minSup = 0.05
	for _, c := range benchScale.SeqLens {
		db := benchQuestDB(b, benchScale.D, c)
		b.Run(fmt.Sprintf("P-TPMiner/C=%d", c), func(b *testing.B) {
			opt := benchOpts(minSup)
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MineTemporal(db, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3PruningAblation — P-TPMiner with each pruning disabled in
// turn at the lowest support of the sweep.
func BenchmarkFig3PruningAblation(b *testing.B) {
	db := benchQuestDB(b, benchScale.D, benchScale.C)
	minSup := benchScale.MinSups[len(benchScale.MinSups)-1]
	configs := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"all", func(*core.Options) {}},
		{"noP1-global", func(o *core.Options) { o.DisableGlobalPruning = true }},
		{"noP2-pair", func(o *core.Options) { o.DisablePairPruning = true }},
		{"noP3-postfix", func(o *core.Options) { o.DisablePostfixPruning = true }},
		{"noP4-size", func(o *core.Options) { o.DisableSizePruning = true }},
		{"none", func(o *core.Options) {
			o.DisableGlobalPruning = true
			o.DisablePairPruning = true
			o.DisablePostfixPruning = true
			o.DisableSizePruning = true
		}},
	}
	for _, cf := range configs {
		b.Run(cf.name, func(b *testing.B) {
			opt := benchOpts(minSup)
			cf.mut(&opt)
			var nodes int64
			for i := 0; i < b.N; i++ {
				_, st, err := core.MineTemporal(db, opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkTab1Memory — allocation profile vs. minimum support; run with
// -benchmem, the B/op column is the table.
func BenchmarkTab1Memory(b *testing.B) {
	db := benchQuestDB(b, benchScale.D, benchScale.C)
	for _, m := range temporalMiners[:2] { // P-TPMiner and TPrefixSpan
		for _, s := range benchScale.MinSups {
			b.Run(fmt.Sprintf("%s/minsup=%g", m.name, s), func(b *testing.B) {
				opt := benchOpts(s)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := m.mine(db, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTab2PatternCounts — mining both pattern types on the four
// simulated real datasets.
func BenchmarkTab2PatternCounts(b *testing.B) {
	ds, err := experiment.RealDatasets(benchScale.Seed, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range ds {
		opt := core.Options{MinSupport: d.MinSup, MaxIntervals: 3}
		optC := opt
		optC.MaxElements = 3
		b.Run(d.Name+"/temporal", func(b *testing.B) {
			var patterns int
			for i := 0; i < b.N; i++ {
				rs, _, err := core.MineTemporal(d.DB, opt)
				if err != nil {
					b.Fatal(err)
				}
				patterns = len(rs)
			}
			b.ReportMetric(float64(patterns), "patterns")
		})
		b.Run(d.Name+"/coincidence", func(b *testing.B) {
			var patterns int
			for i := 0; i < b.N; i++ {
				rs, _, err := core.MineCoincidence(d.DB, optC)
				if err != nil {
					b.Fatal(err)
				}
				patterns = len(rs)
			}
			b.ReportMetric(float64(patterns), "patterns")
		})
	}
}

// BenchmarkTab3Practicability — the full practicability pipeline: mine
// the simulated real datasets, rank the multi-interval patterns, and
// render their Allen-relation readings.
func BenchmarkTab3Practicability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Tab3(benchScale.Seed, true, 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty practicability table")
		}
	}
}

// BenchmarkCoreMicro — micro-benchmarks of the building blocks, for
// profiling regressions outside the experiment suite.
func BenchmarkCoreMicro(b *testing.B) {
	db := benchQuestDB(b, benchScale.D, benchScale.C)
	b.Run("EncodeDatabase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pattern.EncodeDatabase(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TransformDatabase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pattern.TransformDatabase(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	enc, err := pattern.EncodeDatabase(db)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pattern.ParseTemporal("e1+ e1- e3+ e3-")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SupportAligned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.SupportAligned(enc, p)
		}
	})
	ixs := pattern.BuildIndexes(enc)
	b.Run("SupportIndexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.SupportIndexed(ixs, p)
		}
	})
}

// BenchmarkExt1Incremental — extension: maintaining the frequent set
// over a stream of appends, incremental miner vs. re-mining every time.
func BenchmarkExt1Incremental(b *testing.B) {
	cfg := gen.QuestConfig{
		NumSequences: benchScale.D / 2,
		AvgIntervals: benchScale.C,
		NumSymbols:   benchScale.N,
		Seed:         benchScale.Seed,
	}
	db, _, err := gen.Quest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{MinSupport: 0.1, MaxIntervals: benchScale.MaxIntervals}

	b.Run("re-mine-every-append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := &interval.Database{}
			for j := range db.Sequences {
				acc.Sequences = append(acc.Sequences, db.Sequences[j])
				if _, _, err := core.MineTemporal(acc, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, mu := range []float64{1.0, 0.3} {
		b.Run(fmt.Sprintf("incremental/mu=%.1f", mu), func(b *testing.B) {
			var absorbed int
			for i := 0; i < b.N; i++ {
				m, err := incremental.NewMiner(opt, mu)
				if err != nil {
					b.Fatal(err)
				}
				for j := range db.Sequences {
					if _, err := m.Append(db.Sequences[j]); err != nil {
						b.Fatal(err)
					}
				}
				absorbed = m.Stats().IncrementalSteps
			}
			b.ReportMetric(float64(absorbed), "absorbed")
		})
	}
}
