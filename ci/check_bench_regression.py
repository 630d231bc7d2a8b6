#!/usr/bin/env python3
"""Soft perf-regression gate over BENCH_micro.json.

Compares the throughput of the kernels pinned in ci/bench_baseline.json
against a fresh BENCH_micro.json (written by bench_micro_smoke,
bench_gemm_sweep and bench_fleet). The record's rate column is generic:
GMAC/s for GEMM and conv kernels, other units for the rest, named per row
by the baseline's "units" map (rows it omits are GMAC/s), and every row
prints in its own unit with four significant digits. A kernel more than
the baseline's tolerance below its committed rate prints a loud banner; the exit code stays 0 unless QAVAT_BENCH_STRICT=1, because
wall-clock on shared CI hosts is noisy — the banner is the signal, the
committed baseline the trajectory record.

Usage: check_bench_regression.py BENCH_micro.json [baseline.json]
"""
import json
import os
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    bench_path = sys.argv[1]
    base_path = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "bench_baseline.json")

    with open(bench_path) as f:
        bench = json.load(f)
    with open(base_path) as f:
        base = json.load(f)

    rates = {k["name"]: k["gmacs"] for k in bench.get("kernels", [])}
    tolerance = float(base.get("tolerance", 0.20))
    units = base.get("units", {})
    regressions = []
    for name, pinned in base.get("gmacs", {}).items():
        unit = units.get(name, "GMAC/s")
        got = rates.get(name)
        if got is None:
            # A vanished kernel (renamed/deleted bench) is itself a
            # regression: its throughput just became unmonitored.
            print(f"bench-check: baseline kernel '{name}' MISSING from "
                  f"{bench_path} (renamed or deleted? re-pin the baseline)")
            regressions.append((name, 0.0, pinned, unit))
            continue
        floor = pinned * (1.0 - tolerance)
        status = "OK" if got >= floor else "REGRESSED"
        print(f"bench-check: {name:<34} {got:>10.4g} {unit:<12} "
              f"(baseline {pinned:.4g}, floor {floor:.4g})  {status}")
        if got < floor:
            regressions.append((name, got, pinned, unit))

    if regressions:
        print("=" * 70)
        print("PERF REGRESSION: throughput dropped more than "
              f"{tolerance:.0%} below the committed baseline:")
        for name, got, pinned, unit in regressions:
            print(f"  {name}: {got:.4g} vs baseline {pinned:.4g} {unit} "
                  f"({got / pinned:.0%})")
        print("If intentional, re-pin ci/bench_baseline.json; otherwise find")
        print("the commit that slowed the kernel before it ships.")
        print("=" * 70)
        if os.environ.get("QAVAT_BENCH_STRICT") == "1":
            return 1
    else:
        print("bench-check: all pinned kernels within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
