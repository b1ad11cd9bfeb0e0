#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

The first call configures and builds perfbench/ (the library sources under
src/ plus the campaign engine in bench/bench_common.cc) into .bench_build/;
later calls rebuild incrementally. The run's last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer metric.
The line before it is the full run record (provenance, median and quartiles
of each metric, operation counts, every correctness check); the same record
is written to .bench_build/results/<workload>-seed<n>-trace<t>.json and a
traced run also writes its span file (Chrome trace_event JSON) there.

Exit codes: 0 all checks passed; 1 a correctness check failed; 2 bad
arguments or a failed build; 3 the run's output broke the result contract.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve", "durable")
RUN_TIMEOUT_S = 175


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()  # exits 2 with a message on anything malformed
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.seconds <= 60:
        parser.error(f"--seconds must be in [1, 60], got {args.seconds}")
    return args


def build():
    """Configures once and builds incrementally; serialised by a lock file."""
    BUILD.mkdir(exist_ok=True)
    cmake_dir = BUILD / "cmake"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            except OSError as error:
                fail(2, f"cannot run {step[0]}: {error}")
            if done.returncode != 0:
                fail(2, f"build step failed: {' '.join(step)}")
    binary = cmake_dir / "perfbench"
    if not binary.is_file():
        fail(2, f"build produced no {binary}")
    return binary


def revision():
    """git revision when the checkout is a repository, else a source hash."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, workload, args, rev):
    """Runs one workload; returns (exit code, record line, result object)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ETSC_")}
    env["ETSC_LOG"] = "warn"
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--results-dir", str(BUILD / "results"),
               "--work-dir", str(BUILD / "work" / f"{workload}-{os.getpid()}"),
               "--revision", rev]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode not in (0, 1) or len(lines) < 2:
        fail(3, f"{workload}: benchmark exited {done.returncode} without a "
                f"result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(3, f"{workload}: last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(3, f"{workload}: result keys {sorted(result)}")
    if result["correct"]:
        want = expected_metrics(args.trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            fail(3, f"{workload}: metrics differ from BENCHMARK.json "
                    f"(missing {missing}, unexpected {extra}, or units)")
    return done.returncode, lines[-2], result


def main():
    args = parse_args()
    binary = build()
    rev = revision()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst = 0
    for workload in workloads:
        code, record, result = run_one(binary, workload, args, rev)
        worst = max(worst, code)
        results[workload] = result
        if args.workload == "all":
            for name, metric in result["metrics"].items():
                print(f"{workload:9s} {name:40s} {metric['value']:.6g} "
                      f"{metric['unit']}")
        else:
            print(record)
    if args.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
        print(json.dumps(combined))
    else:
        print(json.dumps(results[args.workload]))
    sys.exit(worst)


if __name__ == "__main__":
    main()
