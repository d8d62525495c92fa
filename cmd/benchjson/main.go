// Command benchjson runs the repository's core benchmarks and writes a
// machine-readable summary (BENCH_core.json by default).
//
//	go run ./cmd/benchjson -o BENCH_core.json -benchtime 20x
//
// Four benchmark groups are run:
//
//   - the Fig-1 paper-workload benchmarks at the repo root (Quick scale),
//     compared against the committed pre-refactor baseline in
//     bench/baseline.json to report per-point speedups. The workload is
//     captured twice — pinned at GOMAXPROCS=1 (comparable to the serial
//     baseline) and at GOMAXPROCS=NumCPU — with both sections recorded;
//     on a single-core machine one run serves as both;
//   - the Fig1aSharded benchmarks: the same temporal workload mined
//     through the shard coordinator at shards ∈ {1,2,4,8}, run at
//     GOMAXPROCS=NumCPU. shards=1 is gated against the unsharded
//     reference (-min-shard-ratio) and, on multi-core machines only,
//     shards≈NumCPU is gated against shards=1 (-min-sharded-speedup);
//   - the Fig1aRemote benchmarks: the same sharded workload mined
//     through remote HTTP worker servers over loopback at
//     workers ∈ {1,2,4}, measuring the wire tax of distribution
//     (recorded, not gated — loopback latency is not a deployment's);
//   - the internal/core micro-benchmarks (projection and counting).
//
// The tool shells out to "go test -bench" and parses the standard
// benchmark output; it needs no dependencies beyond the Go toolchain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// result is one parsed benchmark line, joined with its baseline entry
// when one exists.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	SpeedupVsBaseline   float64 `json:"speedup_vs_baseline,omitempty"`
	AllocsRatio         float64 `json:"allocs_ratio,omitempty"`
}

type baselineFile struct {
	Commit     string `json:"commit"`
	Note       string `json:"note"`
	Benchmarks map[string]struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

type report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS is this process's scheduler width; NumCPU is the
	// machine. They differ when the tool itself is pinned — the workload
	// sections record the GOMAXPROCS they ran under explicitly, so the
	// file no longer conflates "ran on one core" with "machine has one".
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Benchtime  string `json:"benchtime"`

	BaselineCommit string `json:"baseline_commit,omitempty"`
	BaselineNote   string `json:"baseline_note,omitempty"`

	// Workload holds the Fig-1 paper benchmarks pinned at GOMAXPROCS=1,
	// with speedups against the committed (serial) baseline.
	Workload           []result `json:"workload"`
	WorkloadGomaxprocs int      `json:"workload_gomaxprocs"`
	// WorkloadMulti repeats the workload at GOMAXPROCS=NumCPU. On a
	// single-core machine it is the same run recorded twice.
	WorkloadMulti           []result `json:"workload_multi"`
	WorkloadMultiGomaxprocs int      `json:"workload_multi_gomaxprocs"`

	// Sharded holds the Fig1aSharded series (unsharded reference plus
	// shards ∈ {1,2,4,8} through the coordinator) at GOMAXPROCS=NumCPU.
	Sharded []result `json:"sharded"`
	// ShardOverheadVsUnsharded is unsharded ns/op divided by shards=1
	// ns/op: 1.0 means a one-shard coordinator costs nothing.
	ShardOverheadVsUnsharded float64 `json:"shard_overhead_vs_unsharded,omitempty"`
	// ShardedSpeedupAtNumCPU is shards=1 ns/op divided by the ns/op of
	// the largest measured shard count ≤ NumCPU (≈1.0 on a single-core
	// runner, where fan-out cannot help).
	ShardedSpeedupAtNumCPU float64 `json:"sharded_speedup_at_numcpu,omitempty"`

	// Remote holds the Fig1aRemote series — the sharded workload mined
	// through remote HTTP worker servers over loopback — at
	// GOMAXPROCS=NumCPU.
	Remote []result `json:"remote"`
	// RemoteOverheadVsSharded is in-process shards=4 ns/op divided by
	// remote workers=1 ns/op: the fraction of sharded throughput left
	// after the mine round-trips go through HTTP on loopback.
	RemoteOverheadVsSharded float64 `json:"remote_overhead_vs_sharded,omitempty"`

	// Micro holds the internal/core hot-path micro-benchmarks.
	Micro []result `json:"micro"`

	// MinWorkloadSpeedup is the smallest speedup_vs_baseline across the
	// workload benchmarks — the headline "the serial hot path got at
	// least this much faster" number. MinFig1aSpeedup restricts that to
	// the Fig-1a temporal-mining points.
	MinWorkloadSpeedup float64 `json:"min_workload_speedup,omitempty"`
	MinFig1aSpeedup    float64 `json:"min_fig1a_speedup,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "BENCH_core.json", "output file")
	baselinePath := fs.String("baseline", "bench/baseline.json", "baseline numbers to compute speedups against")
	benchtime := fs.String("benchtime", "20x", "benchtime for the workload benchmarks")
	minSpeedup := fs.Float64("min-speedup", 0, "fail (exit non-zero) if min_workload_speedup drops below this; 0 disables the gate")
	minShardRatio := fs.Float64("min-shard-ratio", 0, "fail if shards=1 throughput drops below this fraction of unsharded; 0 disables the gate")
	minShardedSpeedup := fs.Float64("min-sharded-speedup", 0, "fail if shards≈NumCPU is not this much faster than shards=1; skipped on single-core machines, 0 disables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var base baselineFile
	if raw, err := os.ReadFile(*baselinePath); err == nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parse %s: %w", *baselinePath, err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "benchjson: no baseline (%v); speedups omitted\n", err)
	}

	numCPU := runtime.NumCPU()
	rep := report{
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         numCPU,
		Benchtime:      *benchtime,
		BaselineCommit: base.Commit,
		BaselineNote:   base.Note,
	}

	const workloadPattern = "Fig1aRuntimeVsMinsup/P-TPMiner|Fig1bRuntimeVsMinsupCoincidence/P-TPMiner"
	workload, err := runBench(".", workloadPattern, *benchtime, 1)
	if err != nil {
		return err
	}
	for i := range workload {
		if b, ok := base.Benchmarks[workload[i].Name]; ok && workload[i].NsPerOp > 0 {
			workload[i].BaselineNsPerOp = b.NsPerOp
			workload[i].BaselineAllocsPerOp = b.AllocsPerOp
			workload[i].SpeedupVsBaseline = round2(b.NsPerOp / workload[i].NsPerOp)
			if workload[i].AllocsPerOp > 0 {
				workload[i].AllocsRatio = round2(b.AllocsPerOp / workload[i].AllocsPerOp)
			}
		}
	}
	rep.Workload = workload
	rep.WorkloadGomaxprocs = 1
	if numCPU > 1 {
		if rep.WorkloadMulti, err = runBench(".", workloadPattern, *benchtime, numCPU); err != nil {
			return err
		}
	} else {
		// One core: the pinned run is the multi run.
		rep.WorkloadMulti = workload
	}
	rep.WorkloadMultiGomaxprocs = numCPU

	sharded, err := runBench(".", "Fig1aSharded", *benchtime, numCPU)
	if err != nil {
		return err
	}
	rep.Sharded = sharded
	var unshardedNs float64
	shardNs := map[int]float64{}
	for _, r := range sharded {
		if r.Name == "Fig1aSharded/unsharded" {
			unshardedNs = r.NsPerOp
		}
		var k int
		if _, err := fmt.Sscanf(r.Name, "Fig1aSharded/shards=%d", &k); err == nil {
			shardNs[k] = r.NsPerOp
		}
	}
	if unshardedNs > 0 && shardNs[1] > 0 {
		rep.ShardOverheadVsUnsharded = round2(unshardedNs / shardNs[1])
	}
	bestK := 1
	for k := range shardNs {
		if k <= numCPU && k > bestK {
			bestK = k
		}
	}
	if shardNs[1] > 0 && shardNs[bestK] > 0 {
		rep.ShardedSpeedupAtNumCPU = round2(shardNs[1] / shardNs[bestK])
	}

	remoteRes, err := runBench(".", "Fig1aRemote", *benchtime, numCPU)
	if err != nil {
		return err
	}
	rep.Remote = remoteRes
	var remote1 float64
	for _, r := range remoteRes {
		if r.Name == "Fig1aRemote/workers=1" {
			remote1 = r.NsPerOp
		}
	}
	if shardNs[4] > 0 && remote1 > 0 {
		rep.RemoteOverheadVsSharded = round2(shardNs[4] / remote1)
	}

	micro, err := runBench("./internal/core/", "ProjectTemporal|CountTemporal|ProjectCoinc", "", 0)
	if err != nil {
		return err
	}
	rep.Micro = micro

	for _, r := range rep.Workload {
		if r.SpeedupVsBaseline <= 0 {
			continue
		}
		if rep.MinWorkloadSpeedup == 0 || r.SpeedupVsBaseline < rep.MinWorkloadSpeedup {
			rep.MinWorkloadSpeedup = r.SpeedupVsBaseline
		}
		if strings.HasPrefix(r.Name, "Fig1a") &&
			(rep.MinFig1aSpeedup == 0 || r.SpeedupVsBaseline < rep.MinFig1aSpeedup) {
			rep.MinFig1aSpeedup = r.SpeedupVsBaseline
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d workload, %d sharded, %d remote, %d micro benchmarks",
		*out, len(rep.Workload), len(rep.Sharded), len(rep.Remote), len(rep.Micro))
	if rep.MinWorkloadSpeedup > 0 {
		fmt.Printf("; min speedup vs %s: %.2fx overall, %.2fx on Fig-1a",
			rep.BaselineCommit, rep.MinWorkloadSpeedup, rep.MinFig1aSpeedup)
	}
	if rep.ShardOverheadVsUnsharded > 0 {
		fmt.Printf("; shards=1 at %.2fx of unsharded, %.2fx sharded speedup at %d cores",
			rep.ShardOverheadVsUnsharded, rep.ShardedSpeedupAtNumCPU, numCPU)
	}
	if rep.RemoteOverheadVsSharded > 0 {
		fmt.Printf("; remote workers=1 at %.2fx of in-process sharded", rep.RemoteOverheadVsSharded)
	}
	fmt.Println(")")

	// The regression gate only fires when a baseline supplied speedups:
	// on a tree without bench/baseline.json there is nothing to compare.
	if *minSpeedup > 0 && rep.MinWorkloadSpeedup > 0 && rep.MinWorkloadSpeedup < *minSpeedup {
		return fmt.Errorf("min workload speedup %.2fx below required %.2fx (benchmark regression vs %s)",
			rep.MinWorkloadSpeedup, *minSpeedup, rep.BaselineCommit)
	}
	if *minShardRatio > 0 && rep.ShardOverheadVsUnsharded > 0 && rep.ShardOverheadVsUnsharded < *minShardRatio {
		return fmt.Errorf("shards=1 at %.2fx of unsharded throughput, below required %.2fx (coordinator overhead regression)",
			rep.ShardOverheadVsUnsharded, *minShardRatio)
	}
	// The multi-core scaling gate is meaningless on one core: fan-out
	// cannot beat serial there, only the overhead gate applies.
	if *minShardedSpeedup > 0 && numCPU > 1 && rep.ShardedSpeedupAtNumCPU > 0 && rep.ShardedSpeedupAtNumCPU < *minShardedSpeedup {
		return fmt.Errorf("sharded speedup %.2fx at %d cores, below required %.2fx",
			rep.ShardedSpeedupAtNumCPU, numCPU, *minShardedSpeedup)
	}
	return nil
}

// runBench executes "go test -bench" in pkg and parses its output.
// benchtime may be empty to use the default; gomaxprocs > 0 pins the
// benchmark process via the environment.
func runBench(pkg, pattern, benchtime string, gomaxprocs int) ([]result, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	if gomaxprocs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	}
	cmd.Stderr = os.Stderr
	outRaw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	var rs []result
	for _, line := range strings.Split(string(outRaw), "\n") {
		if r, ok := parseBenchLine(line); ok {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q in %s", pattern, pkg)
	}
	return rs, nil
}

// parseBenchLine parses one standard benchmark output line:
//
//	BenchmarkName/sub-8   100   12345 ns/op   67 B/op   8 allocs/op
//
// The trailing "-8" GOMAXPROCS suffix is stripped from the name. Extra
// custom metrics (e.g. "39.00 patterns") are ignored.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.NsPerOp == 0 {
		return result{}, false
	}
	return r, true
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
