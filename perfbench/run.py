#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload eval_batch --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. It builds the repository's own CMake
project plus the benchmark binary into .bench_build/, generates the
workload's trace from --seed as 4 .drt shards, measures the workload for
--seconds with DRE_THREADS pinned to 2, checks the outputs, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer ledger, and a chrome://tracing file of the
benchmark's spans is kept under .bench_build/runs/. --tiny runs on about 2k
tuples, for the benchmark's own self-check (test_perfbench.py).

Exit status: 0 when every output was right, 1 when one was wrong, 2 when
the benchmark could not run (no sources to build, build failure, bad
arguments). Requests the server refused or never answered count as failed
operations without making the run incorrect.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("eval_batch", "eval_stream", "serve_open")
TUPLES = {"eval_batch": 10_000, "eval_stream": 50_000, "serve_open": 20_000}
TINY_TUPLES = 2_000
# The evaluation pool, the server's io and dispatcher threads and the load
# generator share a 4-core host; two pool threads never oversubscribe it.
DRE_THREADS = "2"
BUILD_TYPE = "RelWithDebInfo"
RUN_LIMIT_S = 170  # the whole command must end within 180 s

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources to build next to perfbench/")
    hook = ROOT / "perfbench" / "perfbench.cmake"
    log_path = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                      f"-DCMAKE_PROJECT_dre_INCLUDE={hook}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "dre_eval"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")


def git_describe():
    if not (ROOT / ".git").exists():
        return "not-a-git-checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cli_check(data_prefix, out_dir, env, deadline):
    """Gate (b): the in-process render must byte-equal dre_eval's stdout."""
    args = (out_dir / "check.args").read_text().split()
    expected = (out_dir / "check.txt").read_bytes()
    cmd = [str(BUILD / "tools" / "dre_eval"), data_prefix, "greedy:tabular"] + args
    got = subprocess.run(cmd, env=env, capture_output=True,
                         timeout=max(1, deadline - time.monotonic()))
    if got.returncode != 0 or got.stdout != expected:
        print(f"run.py: gate b: `{' '.join(cmd[1:])}` printed different bytes "
              f"(exit {got.returncode})", file=sys.stderr)
        return False
    print(f"gate b: dre_eval {' '.join(args)} byte-equal to the in-process render")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size: about 2k tuples")
    opts = parser.parse_args()
    if opts.seconds <= 0 or opts.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    deadline = time.monotonic() + RUN_LIMIT_S

    build()
    env = dict(os.environ, DRE_THREADS=DRE_THREADS)
    tag = f"{opts.workload}-s{opts.seed}-t{opts.trace}{'-tiny' if opts.tiny else ''}"
    data_dir = BUILD / "data" / f"{tag}-{os.getpid()}"
    out_dir = BUILD / "runs" / tag
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    binary = str(BUILD / "perfbench")
    prefix = str(data_dir / "t-")
    try:
        n = TINY_TUPLES if opts.tiny else TUPLES[opts.workload]
        subprocess.run([binary, "prepare", "--n", str(n), "--seed", str(opts.seed),
                        "--out", prefix], env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1, deadline - time.monotonic()))
        run = subprocess.run(
            [binary, "run", "--workload", opts.workload, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace),
             "--data", prefix, "--out", str(out_dir), "--git", git_describe()],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1, deadline - time.monotonic()))
        lines = run.stdout.rstrip("\n").splitlines()
        if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            print("\n".join(lines), file=sys.stderr)
            fail(f"perfbench run exited {run.returncode} without a result")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = result["correct"]
        if opts.workload != "serve_open":
            result["attempted"] += 1
            if not cli_check(prefix, out_dir, env, deadline):
                result["failed"] += 1
                correct = False
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_LIMIT_S} s")
    except subprocess.CalledProcessError as e:
        fail(f"input generation failed: {e}")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    declared = declared_metrics(opts.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and got != declared:
        print(f"run.py: metrics {sorted(got.items())} do not match BENCHMARK.json "
              f"{sorted(declared.items())}", file=sys.stderr)
        correct = False
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        print("run.py: a metric is not a finite number", file=sys.stderr)
        correct = False
    result["correct"] = correct
    print(f"env: DRE_THREADS={DRE_THREADS}, build {BUILD_TYPE}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
