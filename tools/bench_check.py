#!/usr/bin/env python3
"""Perf-regression gate for the bench JSON artifacts.

Compares a fresh bench run (the envelope written by
``bench_scheduler_hotpath --json`` / ``bench_pipeline_stages --json``,
see bench/bench_json.hpp) against a checked-in baseline
(bench/baselines/) and exits non-zero when the scheduling hot path
regressed.

Three metric classes, chosen so the gate is robust on shared CI
runners whose absolute speed varies run to run:

* **Invariant counts** (``makespan``, ``swaps``, ``identical``,
  ``compiles``) must match the baseline exactly — they are
  deterministic for a fixed seed, so any drift means the scheduler's
  output changed, not just its speed. ``identical`` doubles as the
  indexed-vs-reference bit-identity verdict computed in-process.
  Caveat: the synthetic calibration draws from
  ``std::normal_distribution``, whose algorithm is
  implementation-defined, so baselines must be refreshed on a
  toolchain matching CI (Linux gcc/libstdc++); ``--no-exact``
  downgrades these checks to warnings when comparing across standard
  libraries.

* **``speedup``** (reference seconds / indexed seconds, measured in
  the same process on the same machine) is the normalized
  scheduling-stage wall-time gate: a >THRESHOLD relative drop against
  the baseline fails. Entries whose baseline ``reference_s`` is below
  ``--min-ref-seconds`` are too fast to time reliably and are
  reported but not gated.

* **Absolute ``*_s`` wall seconds** are informational by default
  (runner speed is not comparable to the machine that produced the
  baseline); ``--absolute`` additionally gates them at the same
  threshold for tightly-controlled environments.

* **``psuccess``-keyed metrics** (``psuccess``, ``sabre_psuccess``,
  ...) are quality floors, not timings: the mapper's predicted
  success probability is deterministic for a fixed seed, so any drop
  below ``baseline * (1 - --success-threshold)`` (default 0: never
  regress) fails. This is how ``bench_ablation --json`` gates the
  sabre placement pass against its committed quality baseline.
  ``--no-exact`` downgrades these to warnings too (the synthetic
  calibration is toolchain-specific, like the invariant counts).

* **``*_count`` counters** are exact-match integers: event counts a
  correct run must reproduce precisely (jobs completed, cache disk
  hits after a daemon restart, corrupt entries rejected). Unlike the
  named invariant counts above they are matched by suffix, so smoke
  harnesses (tools/daemon_smoke.sh) can add new counters without
  touching this script. ``--no-exact`` downgrades them to warnings.

Usage:
    bench_check.py CURRENT.json BASELINE.json [--threshold 0.25]
                   [--min-ref-seconds 0.004] [--success-threshold 0.0]
                   [--absolute] [--no-exact]
"""

import argparse
import json
import sys

INVARIANT_KEYS = ("makespan", "swaps", "identical", "compiles",
                  "wins", "regressed")
GATED_RATIO_KEY = "speedup"
SUCCESS_FLOOR_SUFFIX = "psuccess"
COUNTER_SUFFIX = "_count"


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version "
                 f"{data.get('schema_version')!r}")
    return data


def entries_by_name(data):
    return {e["name"]: e for e in data.get("entries", [])}


def check_metrics(label, current, baseline, args, failures):
    """Compare one metrics dict against its baseline counterpart."""
    gate_speedup = baseline.get("reference_s", float("inf")) \
        >= args.min_ref_seconds

    for key, base_val in baseline.items():
        if key not in current:
            failures.append(f"{label}: metric '{key}' missing from "
                            "current run")
            continue
        cur_val = current[key]

        if key in INVARIANT_KEYS:
            if cur_val != base_val:
                msg = (f"{label}: {key} changed {base_val} -> "
                       f"{cur_val} (deterministic output drift)")
                if args.no_exact and key != "identical":
                    print(f"  WARN {msg}")
                else:
                    failures.append(msg)
        elif key.endswith(COUNTER_SUFFIX):
            # Counter: an exact integer event count (completions,
            # cache hits, rejects); any drift is a behavior change.
            if int(cur_val) != int(base_val):
                msg = (f"{label}: counter {key} changed "
                       f"{base_val} -> {cur_val}")
                if args.no_exact:
                    print(f"  WARN {msg}")
                else:
                    failures.append(msg)
        elif key == GATED_RATIO_KEY:
            floor = base_val * (1.0 - args.threshold)
            verdict = "ok"
            if cur_val < floor:
                if gate_speedup:
                    failures.append(
                        f"{label}: speedup {cur_val:.2f} fell below "
                        f"{floor:.2f} (baseline {base_val:.2f} "
                        f"-{args.threshold:.0%})")
                    verdict = "FAIL"
                else:
                    verdict = "skipped (reference too fast to gate)"
            print(f"  {label}: speedup {cur_val:.2f} "
                  f"(baseline {base_val:.2f}) {verdict}")
        elif key == SUCCESS_FLOOR_SUFFIX or \
                key.endswith("_" + SUCCESS_FLOOR_SUFFIX):
            # Quality floor: predicted success must not regress below
            # the committed baseline (minus the explicit allowance).
            # The 1e-9 slack absorbs the JSON's 12-digit rounding; it is
            # relative, because a stream program's prediction can sit
            # far below 1e-9.
            floor = base_val * (1.0 - args.success_threshold) \
                * (1.0 - 1e-9)
            if cur_val < floor:
                msg = (f"{label}: {key} {cur_val:.6g} fell below "
                       f"baseline {base_val:.6g} "
                       f"(-{args.success_threshold:.0%} allowed)")
                if args.no_exact:
                    print(f"  WARN {msg}")
                else:
                    failures.append(msg)
        elif key.endswith("_s") and args.absolute:
            ceil = base_val * (1.0 + args.threshold)
            if cur_val > ceil:
                failures.append(
                    f"{label}: {key} {cur_val:.4f}s exceeds "
                    f"{ceil:.4f}s (baseline {base_val:.4f}s "
                    f"+{args.threshold:.0%})")


def main():
    parser = argparse.ArgumentParser(
        description="Gate bench JSON against a checked-in baseline.")
    parser.add_argument("current", help="freshly produced bench JSON")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--min-ref-seconds", type=float, default=0.004,
                        help="gate speedup only where the baseline "
                             "reference run is at least this long "
                             "(default 0.004s)")
    parser.add_argument("--success-threshold", type=float, default=0.0,
                        help="allowed relative drop in psuccess "
                             "quality floors (default 0 = never "
                             "regress below the baseline)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate absolute *_s wall seconds "
                             "(only meaningful on dedicated hardware)")
    parser.add_argument("--no-exact", action="store_true",
                        help="downgrade invariant-count mismatches to "
                             "warnings (cross-stdlib comparisons; "
                             "'identical' is always enforced)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    if current.get("bench") != baseline.get("bench"):
        sys.exit(f"bench mismatch: current is "
                 f"{current.get('bench')!r}, baseline is "
                 f"{baseline.get('bench')!r}")

    failures = []
    cur_entries = entries_by_name(current)
    print(f"checking {args.current} against {args.baseline} "
          f"(threshold {args.threshold:.0%})")
    for name, base_entry in entries_by_name(baseline).items():
        cur_entry = cur_entries.get(name)
        if cur_entry is None:
            failures.append(f"{name}: instance missing from current "
                            "run")
            continue
        check_metrics(name, cur_entry.get("metrics", {}),
                      base_entry.get("metrics", {}), args, failures)
    if "totals" in baseline:
        check_metrics("totals", current.get("totals", {}),
                      baseline["totals"], args, failures)

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nPASS: no perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
