#!/usr/bin/env python3
"""Perf-regression gate for the conflict hot path (B18).

    python3 tools/perf_gate.py --baseline BENCH_hotpath.json \
                               [--bench build/bench/bench_hotpath]
    python3 tools/perf_gate.py --baseline <json> --current <json>
    python3 tools/perf_gate.py --selftest

Re-measures the hotpath suite (or takes a pre-distilled --current) and
compares it against the committed baseline BENCH_hotpath.json.  The
suite runs 5 times and every gated ratio is the median over those runs: a single run of a wall-clock ratio swings by 2x
on a shared host (flat_speedup[32] read 5.9-12.2x in ten runs of one
build), while the median of five stays inside the bands below.  Only
RATIOS are compared — flat-join speedup over the preserved reference
join, the FactsAgreeOn early-exit gain, the scalar-fallback penalty —
because ratios of two measurements taken on the same machine in the
same run transfer across hardware, while absolute microseconds do not.
A committed baseline from one machine therefore gates runs on any
other.

Gate rules (see docs/memory-layout.md):

  flat_speedup      >= 3.0 at every shard point (absolute floor), and
                    >= 75% of the baseline ratio (25% regression
                    tolerance for noise);
  early_exit_gain   >= 2.0 (absolute floor only) — losing the
                    short-circuit shows up as this ratio collapsing
                    to ~1.  An intact short-circuit gains
                    (c + 12w) / (c + w) for a per-call cost c and a
                    per-column cost w over the 12 lhs columns of the
                    full scan; c/w depends on the CPU, so the gain can
                    sit anywhere in (1, 12] and no baseline-relative
                    band transfers across hosts;
  scalar_penalty    <= 1.25x baseline and <= 2.0 absolute — the scalar
                    fallback drifting away from the vector kernel means
                    a portability regression.

Exit status 1 on any breach, with one line per failed rule.  --selftest
verifies the gate actually bites: a synthetically regressed current
must fail, an identical current must pass.

Stdlib-only by design (runs in CI and the bare build container).
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_to_json import distill_hotpath, run_bench  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

TOLERANCE = 0.75          # current ratio must be >= 75% of baseline
SPEEDUP_FLOOR = 3.0       # flat join vs reference, any shard count
EARLY_EXIT_FLOOR = 2.0    # FactsAgreeOn short-circuit gain
SCALAR_CEILING = 2.0      # scalar fallback vs vector kernel
SCALAR_HEADROOM = 1.25    # allowed growth over the baseline penalty
REPEATS = 5               # bench_hotpath runs behind each gated median


def median_current(runs: list[dict]) -> dict:
    """Folds distilled runs of one bench_hotpath binary into one
    measurement whose gated ratios (flat_speedup, scalar_penalty,
    early_exit_gain) are the medians over the runs.  Every run of one
    binary reports the same ratios; one it lacks stays absent, and
    check() reports it missing."""
    def median(ratio) -> float:
        return statistics.median(ratio(run) for run in runs)

    merged: dict = {"conflict_build": {}, "agree_kernel": {}}
    for shard, row in runs[0]["conflict_build"].items():
        merged["conflict_build"][shard] = {
            key: median(lambda run: run["conflict_build"][shard][key])
            for key in ("flat_speedup", "scalar_penalty") if key in row}
    if "early_exit_gain" in runs[0]["agree_kernel"]:
        merged["agree_kernel"]["early_exit_gain"] = median(
            lambda run: run["agree_kernel"]["early_exit_gain"])
    return merged


def check(baseline: dict, current: dict) -> list[str]:
    """Returns one message per violated gate rule (empty = pass)."""
    failures: list[str] = []
    for shards, base_row in sorted(baseline.get("conflict_build", {}).items(),
                                   key=lambda kv: int(kv[0])):
        cur_row = current.get("conflict_build", {}).get(shards)
        if cur_row is None or "flat_speedup" not in cur_row:
            failures.append(f"conflict_build[{shards}]: missing from the "
                            f"current measurement")
            continue
        speedup = cur_row["flat_speedup"]
        base = base_row.get("flat_speedup")
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"conflict_build[{shards}].flat_speedup = {speedup:.2f}x "
                f"breaches the >= {SPEEDUP_FLOOR:.1f}x floor")
        if base is not None and speedup < base * TOLERANCE:
            failures.append(
                f"conflict_build[{shards}].flat_speedup = {speedup:.2f}x "
                f"regressed > {100 * (1 - TOLERANCE):.0f}% from the "
                f"baseline {base:.2f}x")
        penalty = cur_row.get("scalar_penalty")
        base_penalty = base_row.get("scalar_penalty")
        if penalty is not None:
            if penalty > SCALAR_CEILING:
                failures.append(
                    f"conflict_build[{shards}].scalar_penalty = "
                    f"{penalty:.2f}x breaches the <= {SCALAR_CEILING:.1f}x "
                    f"ceiling")
            if base_penalty is not None and \
                    penalty > max(base_penalty, 1.0) * SCALAR_HEADROOM:
                failures.append(
                    f"conflict_build[{shards}].scalar_penalty = "
                    f"{penalty:.2f}x grew > {100 * (SCALAR_HEADROOM - 1):.0f}% "
                    f"over the baseline {base_penalty:.2f}x")
    # The early-exit gain is gated by its floor alone: its level is a
    # property of the CPU (see the module docstring), while "the
    # short-circuit is gone" reads ~1x on every host.
    gain = current.get("agree_kernel", {}).get("early_exit_gain")
    if gain is None:
        failures.append("agree_kernel.early_exit_gain: missing from the "
                        "current measurement")
    elif gain < EARLY_EXIT_FLOOR:
        failures.append(
            f"agree_kernel.early_exit_gain = {gain:.2f}x breaches the "
            f">= {EARLY_EXIT_FLOOR:.1f}x floor — the FactsAgreeOn "
            f"short-circuit is gone")
    return failures


def selftest() -> int:
    baseline = {
        "conflict_build": {
            "8": {"flat_speedup": 5.0, "scalar_penalty": 1.0},
            "32": {"flat_speedup": 10.0, "scalar_penalty": 1.0},
        },
        "agree_kernel": {"early_exit_gain": 7.0},
    }
    # Identical measurement: must pass.
    if check(baseline, copy.deepcopy(baseline)):
        print("perf_gate selftest: FAIL — identical current was rejected",
              file=sys.stderr)
        return 1
    # A 40% speedup regression (beyond the 25% tolerance): must fail.
    regressed = copy.deepcopy(baseline)
    regressed["conflict_build"]["32"]["flat_speedup"] = 6.0
    if not check(baseline, regressed):
        print("perf_gate selftest: FAIL — 40% speedup regression passed",
              file=sys.stderr)
        return 1
    # A floor breach with a matching (already-bad) baseline: must fail.
    bad_floor = copy.deepcopy(baseline)
    bad_floor["conflict_build"]["8"]["flat_speedup"] = 2.0
    if not check(bad_floor, copy.deepcopy(bad_floor)):
        print("perf_gate selftest: FAIL — sub-floor speedup passed",
              file=sys.stderr)
        return 1
    # A lost early exit: must fail.
    no_exit = copy.deepcopy(baseline)
    no_exit["agree_kernel"]["early_exit_gain"] = 1.0
    if not check(baseline, no_exit):
        print("perf_gate selftest: FAIL — lost early exit passed",
              file=sys.stderr)
        return 1
    # An intact early exit on a host whose per-call cost is larger:
    # above the 2x floor but below 75% of the baseline gain, must pass.
    slower_host = copy.deepcopy(baseline)
    slower_host["agree_kernel"]["early_exit_gain"] = 3.0
    if check(baseline, slower_host):
        print("perf_gate selftest: FAIL — an early-exit gain above the "
              "2x floor was rejected", file=sys.stderr)
        return 1
    # A scalar fallback drifting to 3x the vector kernel: must fail.
    slow_scalar = copy.deepcopy(baseline)
    slow_scalar["conflict_build"]["8"]["scalar_penalty"] = 3.0
    if not check(baseline, slow_scalar):
        print("perf_gate selftest: FAIL — 3x scalar penalty passed",
              file=sys.stderr)
        return 1
    # Medians over repeated runs: one noisy run out of five is outvoted,
    # a regression in three of five is not.
    one_outlier = [copy.deepcopy(baseline) for _ in range(REPEATS)]
    one_outlier[0]["conflict_build"]["32"]["flat_speedup"] = 6.0
    one_outlier[1]["conflict_build"]["8"]["scalar_penalty"] = 3.0
    if check(baseline, median_current(one_outlier)):
        print("perf_gate selftest: FAIL — a single outlier run failed the "
              "median", file=sys.stderr)
        return 1
    persistent = [copy.deepcopy(baseline) for _ in range(REPEATS)]
    for run in persistent[:3]:
        run["conflict_build"]["32"]["flat_speedup"] = 6.0
        run["agree_kernel"]["early_exit_gain"] = 1.0
    if len(check(baseline, median_current(persistent))) != 2:
        print("perf_gate selftest: FAIL — a regression in 3 of 5 runs "
              "passed the median", file=sys.stderr)
        return 1
    print("perf_gate selftest: all synthetic regressions rejected, "
          "identical measurement, above-floor early exit and a single "
          "outlier run accepted")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_hotpath.json to gate against")
    parser.add_argument("--bench",
                        default=str(REPO_ROOT / "build/bench/bench_hotpath"),
                        help="hotpath benchmark binary to measure")
    parser.add_argument("--current", default=None,
                        help="pre-distilled current JSON (skips the "
                             "benchmark run; for CI debugging)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate rejects synthetic regressions")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.baseline is None:
        parser.error("--baseline is required (or use --selftest)")
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    if args.current is not None:
        current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    else:
        bench = Path(args.bench)
        if not bench.exists():
            print(f"perf_gate: no binary at {bench} — build bench_hotpath "
                  f"first", file=sys.stderr)
            return 1
        current = median_current([distill_hotpath(run_bench(bench))
                                  for _ in range(REPEATS)])
    failures = check(baseline, current)
    for failure in failures:
        print(f"perf_gate: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    for shards, row in sorted(current.get("conflict_build", {}).items(),
                              key=lambda kv: int(kv[0])):
        print(f"perf_gate: ok conflict_build[{shards}] "
              f"{row['flat_speedup']:.1f}x (baseline "
              f"{baseline['conflict_build'][shards]['flat_speedup']:.1f}x)")
    gain = current.get("agree_kernel", {}).get("early_exit_gain")
    if gain is not None:
        print(f"perf_gate: ok agree_kernel {gain:.1f}x early-exit gain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
