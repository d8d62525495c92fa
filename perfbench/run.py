#!/usr/bin/env python3
"""Build and run the tpmd end-to-end benchmark (perfbench).

One run, from the repository root:

    python3 perfbench/run.py --workload mine_cold --seed 1 [--seconds S] --trace 0

builds the Go program in perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into .bench_build/,
runs it, and passes its output through: the last line of standard output
is the run's JSON result. Every build and run artefact stays under
.bench_build/ in the checkout. --seconds defaults to BENCHMARK.json's
run_seconds, the length the bounds were measured at.

Steadiness report:

    python3 perfbench/run.py --report [--runs 10] [--workloads a,b] [--seconds S]

runs each workload --runs times, seed 1..runs, and prints every
end-to-end metric's median, quartiles and quartile spread as a share of
the median, against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")
TMP = os.path.join(BUILD, "tmp")
RUN_TIMEOUT = 175  # seconds; a run must end well within 180


def build():
    """Compile perfbench; the Go caches live inside the checkout."""
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
        "GOTMPDIR": TMP,
    })
    os.makedirs(TMP, exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."],
                          cwd=os.path.join(ROOT, "perfbench"), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def run_once(args, capture):
    """Run the benchmark binary once; returns the completed process."""
    cmd = [BINARY, *args, "--out", os.path.join(BUILD, "perfbench")]
    env = dict(os.environ, TMPDIR=TMP)
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(opts, spec, seconds):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    steady = True
    for name in names:
        values, bad = {}, []
        for seed in range(1, opts.runs + 1):
            proc = run_once(["--workload", name, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"], True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad.append("seed %d: exit %d" % (seed, proc.returncode))
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                bad.append("seed %d: correct=%s failed=%d/%d" % (
                    seed, res["correct"], res["failed"], res["attempted"]))
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        print("%s: %d runs of %s s%s" % (name, opts.runs, seconds,
                                          "" if not bad else "; " + "; ".join(bad)))
        print("  %-16s %-5s %12s %12s %12s %8s %7s" % ("metric", "unit", "q1", "median", "q3", "spread", "bound"))
        for m in sorted(values):
            q1, q2, q3 = quartiles(values[m])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            meta = bounds.get(m, {})
            ok = spread <= meta.get("bound", 0) / 3
            steady = steady and ok and not bad
            print("  %-16s %-5s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%%s" % (
                m, meta.get("unit", "?"), q1, q2, q3, 100 * spread, 100 * meta.get("bound", 0),
                "" if ok else "  <-- above a third of the bound"))
        sys.stdout.flush()
    return 0 if steady else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--report", action="store_true", help="print the steadiness report")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated subset for --report")
    opts = p.parse_args()
    if not opts.report and not opts.workload:
        p.error("--workload is required")
    spec = load_spec()
    seconds = opts.seconds or spec["run_seconds"]
    build()
    if opts.report:
        return report(opts, spec, seconds)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(seconds), "--trace", str(opts.trace)]
    return run_once(args, False).returncode


if __name__ == "__main__":
    sys.exit(main())
