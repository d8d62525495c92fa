package experiment

import (
	"fmt"
	"io"
	"strconv"

	"tpminer/internal/baseline"
	"tpminer/internal/core"
	"tpminer/internal/gen"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// Scale sizes the experiment suite. Quick keeps every run in seconds for
// iterating and for the bench suite; Paper approaches the dataset sizes
// conventional for this literature (the baselines are only run where
// they remain tractable — their blow-up at scale is the result).
type Scale struct {
	Name    string
	D       int       // base database size (sequences)
	C       int       // average intervals per sequence
	N       int       // alphabet size
	MinSups []float64 // relative supports for the minsup sweeps
	DBSizes []int     // database sizes for Fig 2a
	SeqLens []int     // average sequence lengths for Fig 2b
	// MaxIntervals caps pattern size uniformly across all algorithms
	// (identical pattern space, so relative comparisons are unaffected);
	// 0 means unlimited.
	MaxIntervals int
	// BaselineMinSup is the lowest support at which the baseline
	// algorithms are run; below it their blow-up makes the sweep
	// intractable and the cell reads "-". 0 runs them everywhere.
	BaselineMinSup float64
	// BaselineMaxD is the largest database size at which TPrefixSpan
	// joins the Fig 2a scalability sweep. 0 runs it everywhere.
	BaselineMaxD int
	Seed         int64
}

// Quick is the scale used by the benchmark suite and -quick CLI runs.
var Quick = Scale{
	Name:         "quick",
	D:            200,
	C:            8,
	N:            40,
	MinSups:      []float64{0.10, 0.08, 0.06, 0.04, 0.02},
	DBSizes:      []int{100, 200, 400, 800},
	SeqLens:      []int{4, 6, 8, 10},
	MaxIntervals: 4,
	Seed:         42,
}

// Paper is the scale recorded in EXPERIMENTS.md.
var Paper = Scale{
	Name:           "paper",
	D:              2000,
	C:              10,
	N:              100,
	MinSups:        []float64{0.10, 0.08, 0.06, 0.04, 0.02},
	DBSizes:        []int{1000, 2000, 4000, 8000},
	SeqLens:        []int{5, 10, 15, 20},
	MaxIntervals:   4,
	BaselineMinSup: 0.06,
	BaselineMaxD:   2000,
	Seed:           42,
}

func (sc Scale) questConfig() gen.QuestConfig {
	return gen.QuestConfig{
		NumSequences: sc.D,
		AvgIntervals: sc.C,
		NumSymbols:   sc.N,
		Seed:         sc.Seed,
	}
}

func (sc Scale) options(minSup float64) core.Options {
	return core.Options{MinSupport: minSup, MaxIntervals: sc.MaxIntervals}
}

// Fig1a — runtime vs. minimum support, temporal patterns, P-TPMiner vs.
// TPrefixSpan vs. Apriori on the Quest synthetic dataset.
func Fig1a(sc Scale) (*Table, error) {
	db, _, err := gen.Quest(sc.questConfig())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 1a: runtime vs minsup, temporal patterns (%s)", sc.questConfig().Name()),
		Header: []string{"minsup", "P-TPMiner(ms)", "TPrefixSpan(ms)", "Apriori(ms)", "patterns"},
	}
	for _, s := range sc.MinSups {
		opt := sc.options(s)
		mCore, err := MeasureTemporal(core.MineTemporal, db, opt)
		if err != nil {
			return nil, err
		}
		tpsCell, aprCell := "-", "-"
		if sc.BaselineMinSup == 0 || s >= sc.BaselineMinSup {
			mTPS, err := MeasureTemporal(baseline.TPrefixSpan, db, opt)
			if err != nil {
				return nil, err
			}
			tpsCell = ms(mTPS.Elapsed)
			mApr, err := MeasureTemporal(baseline.AprioriTemporal, db, opt)
			if err != nil {
				return nil, err
			}
			aprCell = ms(mApr.Elapsed)
		}
		t.AddRow(pct(s), ms(mCore.Elapsed), tpsCell, aprCell,
			strconv.Itoa(mCore.Patterns))
	}
	return t, nil
}

// Fig1b — runtime vs. minimum support, coincidence patterns, P-TPMiner
// vs. Apriori.
func Fig1b(sc Scale) (*Table, error) {
	db, _, err := gen.Quest(sc.questConfig())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 1b: runtime vs minsup, coincidence patterns (%s)", sc.questConfig().Name()),
		Header: []string{"minsup", "P-TPMiner(ms)", "Apriori(ms)", "patterns"},
	}
	for _, s := range sc.MinSups {
		opt := sc.options(s)
		mCore, err := MeasureCoinc(core.MineCoincidence, db, opt)
		if err != nil {
			return nil, err
		}
		aprCell := "-"
		if sc.BaselineMinSup == 0 || s >= sc.BaselineMinSup {
			mApr, err := MeasureCoinc(baseline.AprioriCoincidence, db, opt)
			if err != nil {
				return nil, err
			}
			aprCell = ms(mApr.Elapsed)
		}
		t.AddRow(pct(s), ms(mCore.Elapsed), aprCell, strconv.Itoa(mCore.Patterns))
	}
	return t, nil
}

// fig2MinSup is the fixed support threshold of the scalability figures.
const fig2MinSup = 0.05

// Fig2a — runtime vs. database size at fixed minsup, P-TPMiner against
// TPrefixSpan.
func Fig2a(sc Scale) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Fig 2a: scalability vs |D| (C%d-N%d, minsup %s)", sc.C, sc.N, pct(fig2MinSup)),
		Header: []string{"|D|", "P-TPMiner(ms)", "TPrefixSpan(ms)", "patterns"},
	}
	for _, d := range sc.DBSizes {
		cfg := sc.questConfig()
		cfg.NumSequences = d
		db, _, err := gen.Quest(cfg)
		if err != nil {
			return nil, err
		}
		opt := sc.options(fig2MinSup)
		mSer, err := MeasureTemporal(core.MineTemporal, db, opt)
		if err != nil {
			return nil, err
		}
		tpsCell := "-"
		if sc.BaselineMaxD == 0 || d <= sc.BaselineMaxD {
			mTPS, err := MeasureTemporal(baseline.TPrefixSpan, db, opt)
			if err != nil {
				return nil, err
			}
			tpsCell = ms(mTPS.Elapsed)
		}
		t.AddRow(strconv.Itoa(d), ms(mSer.Elapsed), tpsCell,
			strconv.Itoa(mSer.Patterns))
	}
	return t, nil
}

// Fig2b — runtime vs. average sequence length at fixed minsup and |D|.
func Fig2b(sc Scale) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Fig 2b: scalability vs |C| (D%d-N%d, minsup %s)", sc.D, sc.N, pct(fig2MinSup)),
		Header: []string{"|C|", "P-TPMiner(ms)", "patterns", "nodes"},
	}
	for _, c := range sc.SeqLens {
		cfg := sc.questConfig()
		cfg.AvgIntervals = c
		db, _, err := gen.Quest(cfg)
		if err != nil {
			return nil, err
		}
		m, err := MeasureTemporal(core.MineTemporal, db, sc.options(fig2MinSup))
		if err != nil {
			return nil, err
		}
		t.AddRow(strconv.Itoa(c), ms(m.Elapsed), strconv.Itoa(m.Patterns),
			strconv.FormatInt(m.Stats.Nodes, 10))
	}
	return t, nil
}

// Fig3 — pruning ablation: each pruning disabled in turn, then all of
// them, at the lowest support of the sweep (where pruning matters most).
func Fig3(sc Scale) (*Table, error) {
	db, _, err := gen.Quest(sc.questConfig())
	if err != nil {
		return nil, err
	}
	minSup := sc.MinSups[len(sc.MinSups)-1]
	base := sc.options(minSup)

	configs := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"all prunings", func(*core.Options) {}},
		{"-P1 global", func(o *core.Options) { o.DisableGlobalPruning = true }},
		{"-P2 pair", func(o *core.Options) { o.DisablePairPruning = true }},
		{"-P3 postfix", func(o *core.Options) { o.DisablePostfixPruning = true }},
		{"-P4 size", func(o *core.Options) { o.DisableSizePruning = true }},
		{"none", func(o *core.Options) {
			o.DisableGlobalPruning = true
			o.DisablePairPruning = true
			o.DisablePostfixPruning = true
			o.DisableSizePruning = true
		}},
	}

	t := &Table{
		Title: fmt.Sprintf("Fig 3: pruning ablation, temporal patterns (%s, minsup %s)",
			sc.questConfig().Name(), pct(minSup)),
		Header: []string{"config", "time(ms)", "nodes", "cand.scans", "patterns"},
	}
	for _, cf := range configs {
		opt := base
		cf.mut(&opt)
		m, err := MeasureTemporal(core.MineTemporal, db, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(cf.name, ms(m.Elapsed),
			strconv.FormatInt(m.Stats.Nodes, 10),
			strconv.FormatInt(m.Stats.CandidateScans, 10),
			strconv.Itoa(m.Patterns))
	}
	return t, nil
}

// Tab1 — memory usage vs. minimum support: total allocations and live
// heap of P-TPMiner against TPrefixSpan. Pseudo-projection should keep
// the former flat.
func Tab1(sc Scale) (*Table, error) {
	db, _, err := gen.Quest(sc.questConfig())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Tab 1: memory vs minsup (%s)", sc.questConfig().Name()),
		Header: []string{"minsup", "P-TPMiner alloc(MB)", "P-TPMiner live(MB)", "TPrefixSpan alloc(MB)", "patterns"},
	}
	for _, s := range sc.MinSups {
		opt := sc.options(s)
		mCore, err := MeasureTemporal(core.MineTemporal, db, opt)
		if err != nil {
			return nil, err
		}
		tpsCell := "-"
		if sc.BaselineMinSup == 0 || s >= sc.BaselineMinSup {
			mTPS, err := MeasureTemporal(baseline.TPrefixSpan, db, opt)
			if err != nil {
				return nil, err
			}
			tpsCell = mb(mTPS.Allocs)
		}
		t.AddRow(pct(s), mb(mCore.Allocs), mb(mCore.HeapLive), tpsCell,
			strconv.Itoa(mCore.Patterns))
	}
	return t, nil
}

// RealDataset bundles one simulated real-world database with the support
// threshold used for it in the case studies.
type RealDataset struct {
	Name   string
	DB     *interval.Database
	MinSup float64
	// Planted ground truth, when the generator reports it.
	Planted []gen.Planted
}

// RealDatasets builds the four simulated real datasets of the
// practicability study.
func RealDatasets(seed int64, quick bool) ([]RealDataset, error) {
	size := func(full int) int {
		if quick {
			return full / 4
		}
		return full
	}
	aslDB, _, _, _ := gen.ASL(gen.ASLConfig{NumUtterances: size(400), Seed: seed})
	stockDB, _, _ := gen.Stock(gen.StockConfig{NumWindows: size(400), Seed: seed + 1})
	patDB, patPlanted := gen.Patients(gen.PatientConfig{NumPatients: size(400), Seed: seed + 2})
	libDB, _, _ := gen.Library(gen.LibraryConfig{NumBorrowers: size(400), Seed: seed + 3})
	return []RealDataset{
		{Name: "ASL-sim", DB: aslDB, MinSup: 0.15},
		{Name: "Stock-sim", DB: stockDB, MinSup: 0.30},
		{Name: "Patient-sim", DB: patDB, MinSup: 0.15, Planted: patPlanted},
		{Name: "Library-sim", DB: libDB, MinSup: 0.15},
	}, nil
}

// tab2MaxIntervals caps temporal patterns at three interval instances
// and tab2MaxElements caps coincidence patterns at three elements: the
// real-data pattern spaces stay readable and the runs fast. (Coincidence
// sequences of the stock data are long and repetitive; unbounded mining
// there yields hundreds of thousands of patterns.)
const (
	tab2MaxIntervals = 3
	tab2MaxElements  = 3
)

// Tab2 — dataset statistics and pattern counts per type on the simulated
// real datasets.
func Tab2(seed int64, quick bool) (*Table, error) {
	ds, err := RealDatasets(seed, quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Tab 2: simulated real datasets, pattern counts per type",
		Header: []string{"dataset", "seqs", "intervals", "symbols", "minsup", "temporal", "coincidence", "time(ms)"},
	}
	for _, d := range ds {
		st := d.DB.Summarize()
		opt := core.Options{MinSupport: d.MinSup, MaxIntervals: tab2MaxIntervals}
		mT, err := MeasureTemporal(core.MineTemporal, d.DB, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		optC := opt
		optC.MaxElements = tab2MaxElements
		mC, err := MeasureCoinc(core.MineCoincidence, d.DB, optC)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		t.AddRow(d.Name,
			strconv.Itoa(st.Sequences), strconv.Itoa(st.Intervals), strconv.Itoa(st.Symbols),
			pct(d.MinSup), strconv.Itoa(mT.Patterns), strconv.Itoa(mC.Patterns),
			ms(mT.Elapsed+mC.Elapsed))
	}
	return t, nil
}

// Tab3 — practicability: the top multi-interval patterns per dataset
// with their recovered Allen-relation reading, plus verification that
// the Patient-sim planted episodes are recovered.
func Tab3(seed int64, quick bool, topK int) (*Table, error) {
	ds, err := RealDatasets(seed, quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Tab 3: practicability — top multi-interval temporal patterns",
		Header: []string{"dataset", "support", "pattern", "relations"},
	}
	for _, d := range ds {
		opt := core.Options{MinSupport: d.MinSup, MaxIntervals: tab2MaxIntervals}
		rs, _, err := core.MineTemporal(d.DB, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		shown := 0
		for _, r := range rs {
			if r.Pattern.NumIntervals() < 2 {
				continue // single intervals say nothing about arrangement
			}
			t.AddRow(d.Name, strconv.Itoa(r.Support), r.Pattern.String(),
				r.Pattern.RelationSummary())
			shown++
			if shown >= topK {
				break
			}
		}
		// Ground-truth recovery check for planted arrangements.
		for i, pl := range d.Planted {
			found := "MISSING"
			key := pl.Pattern.Normalize().Key()
			for _, r := range rs {
				if containsSubpattern(r.Pattern, key) || r.Pattern.Normalize().Key() == key {
					found = fmt.Sprintf("recovered (support %d)", r.Support)
					break
				}
			}
			t.AddRow(d.Name, "-", fmt.Sprintf("planted #%d: %s", i, pl.Pattern), found)
		}
	}
	return t, nil
}

// containsSubpattern reports whether p's normalized key equals key.
// (Planted templates are compared exactly; partial recovery is counted
// as missing so the check stays strict.)
func containsSubpattern(p pattern.Temporal, key string) bool {
	return p.Normalize().Key() == key
}

// RunAll executes the full suite at the given scale and writes every
// table to w. It is the engine behind cmd/experiments.
func RunAll(w io.Writer, sc Scale, quick bool) error {
	type namedRun struct {
		name string
		run  func() (*Table, error)
	}
	runs := []namedRun{
		{"fig1a", func() (*Table, error) { return Fig1a(sc) }},
		{"fig1b", func() (*Table, error) { return Fig1b(sc) }},
		{"fig2a", func() (*Table, error) { return Fig2a(sc) }},
		{"fig2b", func() (*Table, error) { return Fig2b(sc) }},
		{"fig3", func() (*Table, error) { return Fig3(sc) }},
		{"tab1", func() (*Table, error) { return Tab1(sc) }},
		{"tab2", func() (*Table, error) { return Tab2(sc.Seed, quick) }},
		{"tab3", func() (*Table, error) { return Tab3(sc.Seed, quick, 5) }},
		{"ext1", func() (*Table, error) { return Ext1(sc) }},
	}
	for _, r := range runs {
		tbl, err := r.run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", r.name, err)
		}
		if _, err := fmt.Fprintf(w, "%s\n", tbl.Format()); err != nil {
			return err
		}
	}
	return nil
}
