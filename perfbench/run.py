#!/usr/bin/env python3
"""Builds and runs the gnnbridge host wall-clock benchmark.

    python3 perfbench/run.py --workload gcn_full_products --seed 1 --seconds 10 --trace 0

Run from anywhere; paths are taken relative to this file. The script
configures and builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench at the repository root, then runs one workload in one
process. Build output goes to standard error; the last line of standard
output is the result JSON. `--seed default` and `--seed heldout` name the
two recorded seeds. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("gcn_full_products", "gat_sim_reddit", "sage_full_reddit", "gcn_shard4_reddit")
# The seed benchmarks are tuned and compared on, and one kept aside to check
# that a claimed gain holds on inputs the change was not developed against.
SEEDS = {"default": 1, "heldout": 20210227}
# A run must end within 180 s; the program's own loop is far shorter.
RUN_TIMEOUT_S = 170


def seed_arg(text):
    if text in SEEDS:
        return SEEDS[text]
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def git_sha():
    if os.environ.get("GNNBRIDGE_GIT_SHA"):
        return os.environ["GNNBRIDGE_GIT_SHA"]
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found at {ROOT / 'src'}")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
              *generator],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=seed_arg, default=SEEDS["default"],
                   help="non-negative integer, 'default' or 'heldout'")
    p.add_argument("--seconds", type=int, default=20, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    # The library reads GNNBRIDGE_* settings (threads, shards, fault plans,
    # trace files) from the environment; the benchmark fixes its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GNNBRIDGE_")}
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
