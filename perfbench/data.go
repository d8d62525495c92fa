package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"tpminer/internal/api"
	"tpminer/internal/dataio"
	"tpminer/internal/gen"
	"tpminer/internal/interval"
)

// The dataset is Quest D=1000, C=10, N=100 — the shape of the paper's
// Fig-2a scaling runs — generated at the repository's experiment seed
// (internal/experiment uses 42). It is the same for every run: the
// number of frequent coincidence patterns on a Quest dataset swings by
// two orders of magnitude with the generator seed (at 8% support, from
// about 600 to over 70 000 on seeds 1–16, i.e. from 40 ms to seconds
// per mine), which would make the mine workloads' numbers measure the
// draw of the dataset rather than the program. The run's --seed drives
// everything else: the spec streams, the request sequences and the
// streamed sequences of ingest_jobs.
const (
	datasetName = "quest"
	datasetSeqs = 1000
	datasetSeed = 42
)

// questDB generates n Quest sequences (C=10, N=100) whose IDs carry
// prefix, so independently generated streams never collide.
func questDB(seed int64, n int, prefix string) (*interval.Database, error) {
	db, _, err := gen.Quest(gen.QuestConfig{
		NumSequences: n,
		AvgIntervals: 10,
		NumSymbols:   100,
		Seed:         seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	for i := range db.Sequences {
		db.Sequences[i].ID = fmt.Sprintf("%s%d", prefix, i)
	}
	return db, nil
}

// dataset is the CSV body PUT to the server and the database the server
// parses from it, which every reference result is computed on.
type dataset struct {
	csv []byte
	db  *interval.Database
}

func makeDataset() (*dataset, error) {
	gdb, err := questDB(datasetSeed, datasetSeqs, "s")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, gdb); err != nil {
		return nil, err
	}
	db, err := dataio.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &dataset{csv: buf.Bytes(), db: db}, nil
}

// mineReq is one request of a spec stream.
type mineReq struct {
	spec  api.MineSpec
	body  []byte
	check bool // in the seeded sample compared against the serial miner
}

// specStream draws n MineSpecs with pairwise distinct result options,
// so that every request of the stream misses the result cache. The mix
// is stratified in blocks of 20 so that every seed's stream has the same
// composition: 14 temporal (min_support 2–16%, max_intervals 3 or 4)
// and 6 coincidence (min_support 8–16%), with supports drawn one per
// equal-width stratum of the range; independently 4 top_k, 4
// closed/maximal and 4 parallel 2. About one request in twelve joins
// the correctness sample.
func specStream(seed int64, n int) []mineReq {
	rng := rand.New(rand.NewSource(seed ^ 0x5ec5))
	seen := map[string]bool{}
	out := make([]mineReq, 0, n)
	for len(out) < n {
		for _, s := range specBlock(rng) {
			// A repeated key would be a cache hit: redraw its support
			// within the same stratum until it is new.
			for seen[s.spec.ResultOptions()] {
				s.spec.MinSupport = roundTo(s.lo+s.width*rng.Float64(), 6)
			}
			seen[s.spec.ResultOptions()] = true
			body, err := json.Marshal(s.spec)
			if err != nil { // unreachable: specs are plain data
				panic(err)
			}
			out = append(out, mineReq{spec: s.spec, body: body, check: rng.Intn(12) == 0})
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// stratum is one drawn spec with the support stratum it came from.
type stratum struct {
	spec      api.MineSpec
	lo, width float64
}

const blockLen = 20

func specBlock(rng *rand.Rand) []stratum {
	block := make([]stratum, 0, blockLen)
	for i := 0; i < 14; i++ {
		w := 0.14 / 14
		s := stratum{lo: 0.02 + w*float64(i), width: w}
		s.spec.Mode = api.ModeTemporal
		s.spec.MaxIntervals = 3 + i%2
		block = append(block, s)
	}
	for i := 0; i < 6; i++ {
		w := 0.08 / 6
		s := stratum{lo: 0.08 + w*float64(i), width: w}
		s.spec.Mode = api.ModeCoincidence
		block = append(block, s)
	}
	topK := flags(rng, 4)
	filters := flags(rng, 4)
	parallel := flags(rng, 4)
	closed := true
	for i := range block {
		s := &block[i].spec
		s.MinSupport = roundTo(block[i].lo+block[i].width*rng.Float64(), 6)
		if topK[i] {
			s.TopK = 10 + rng.Intn(91)
		}
		if filters[i] {
			s.Filter = map[bool]string{true: "closed", false: "maximal"}[closed]
			closed = !closed
		}
		if parallel[i] {
			s.Parallel = 2
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// flags returns blockLen booleans of which exactly k are set, shuffled.
func flags(rng *rand.Rand, k int) []bool {
	f := make([]bool, blockLen)
	for i := 0; i < k; i++ {
		f[i] = true
	}
	rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	return f
}

func roundTo(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}
