#!/usr/bin/env python3
"""Build and run the qavat end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the
library from the repository root) as a Release build in $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls only rebuild what changed.
Each run gets a private work directory under .bench_work/ (artifact store
included) that is removed when the run ends; traced runs keep their Chrome
trace in .bench_work/traces/. The benchmark's stdout is passed through: its
last line is the result object.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# Every workload runs at one pool thread: on a shared 4-core host the
# multi-threaded wall clock varied by up to half between runs. Thread
# scaling is reported per layer (model.*.tN) by the traced run instead.
BENCH_THREADS = 1


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return (ROOT / target) if target else ROOT / ".bench_build"


def build(jobs):
    """Configure (once) and build qbench; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file():
        log(f"no CMakeLists.txt at {ROOT}: the library sources are missing")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "qbench",
                  "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out / "qbench"


def bench_env():
    """Fast-mode budgets at BENCH_THREADS, no other inherited QAVAT_* knob
    (backend, chip batch, store, fault injection); qbench points the store
    at its own work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QAVAT_")}
    env["QAVAT_FAST"] = "1"
    env["QAVAT_THREADS"] = str(BENCH_THREADS)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests instead of a workload")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required (or --selftest)")

    binary = build(max(1, min(4, len(os.sched_getaffinity(0)))))
    if binary is None:
        return 1

    work_root = ROOT / ".bench_work"
    name = "selftest" if args.selftest else f"{args.workload}-s{args.seed}"
    work = work_root / f"run-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.selftest:
        cmd = [str(binary), "selftest", "--work", str(work)]
    else:
        traces = work_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work),
               "--trace-file", str(traces / f"{name}.json")]
    try:
        # run() kills the child on timeout and waits for it to exit.
        proc = subprocess.run(cmd, env=bench_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"qbench exited with {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
