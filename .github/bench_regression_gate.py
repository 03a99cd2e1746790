#!/usr/bin/env python3
"""CI regression gate: diff two fairmatch_bench JSON reports.

Usage: bench_regression_gate.py PREVIOUS.json CURRENT.json

Exits 0 with a note when the previous report is missing (first run on a
branch, expired artifact) or was produced at a different scale.
Otherwise fails (exit 1) when, for any (figure, section, x, algorithm)
row present in both reports:

  * a deterministic metric drifted (io_accesses, pairs or loops must be
    bit-identical run to run), or
  * median cpu_ms regressed by more than REGRESSION_FACTOR (default
    1.30, i.e. >30%) on rows large enough to measure (>= MIN_CPU_MS), or
  * on a rate row (algorithm label ending in RATE_SUFFIX, e.g.
    `apply:updates_per_s`), whose cpu_ms column stores a rate, the rate
    fell below the previous one divided by REGRESSION_FACTOR: rates are
    higher-is-better,

or when a row present in the previous report disappeared (a figure or
matcher silently dropped out). New rows are allowed — they have no
baseline yet.
"""
import json
import os
import sys

REGRESSION_FACTOR = float(os.environ.get("BENCH_REGRESSION_FACTOR", "1.30"))
MIN_CPU_MS = float(os.environ.get("BENCH_REGRESSION_MIN_CPU_MS", "5.0"))
DETERMINISTIC_FIELDS = ("io_accesses", "pairs", "loops")
RATE_SUFFIX = "_per_s"


def note(message):
    print(f"bench_regression_gate: {message}")


def load_rows(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "fairmatch-bench/v1":
        raise ValueError(f"unexpected schema {report.get('schema')!r}")
    rows = {}
    for figure, figure_rows in report.get("figures", {}).items():
        for row in figure_rows:
            key = (figure, row["section"], row["x"], row["algorithm"])
            rows[key] = row
    return report, rows


def main():
    if len(sys.argv) != 3:
        note(f"usage: {sys.argv[0]} PREVIOUS.json CURRENT.json")
        return 1
    prev_path, cur_path = sys.argv[1], sys.argv[2]

    if not os.path.exists(prev_path):
        note(f"no previous report at {prev_path}; skipping (first run?)")
        return 0
    try:
        prev_report, prev_rows = load_rows(prev_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        note(f"cannot parse previous report ({e}); skipping")
        return 0
    cur_report, cur_rows = load_rows(cur_path)

    if prev_report.get("scale") != cur_report.get("scale"):
        note(
            f"scale changed ({prev_report.get('scale')} -> "
            f"{cur_report.get('scale')}); skipping"
        )
        return 0

    failures = []
    slowdowns = []
    for key, prev in sorted(prev_rows.items()):
        cur = cur_rows.get(key)
        label = "/".join(k for k in key if k)
        if cur is None:
            failures.append(f"row disappeared: {label}")
            continue
        for field in DETERMINISTIC_FIELDS:
            if prev[field] != cur[field]:
                failures.append(
                    f"deterministic drift: {label} {field} "
                    f"{prev[field]} -> {cur[field]}"
                )
        before, after = prev["cpu_ms"], cur["cpu_ms"]
        if key[3].endswith(RATE_SUFFIX):
            if after < before / REGRESSION_FACTOR:
                slowdowns.append(
                    f"rate regression: {label} {before:.1f}/s -> "
                    f"{after:.1f}/s (x{after / before:.2f})"
                )
        elif before >= MIN_CPU_MS and after > before * REGRESSION_FACTOR:
            slowdowns.append(
                f"cpu regression: {label} {before:.1f}ms -> "
                f"{after:.1f}ms (x{after / before:.2f})"
            )

    for line in failures + slowdowns:
        note(f"FAIL: {line}")
    if failures or slowdowns:
        note(
            f"{len(failures)} drift / {len(slowdowns)} cpu failures against "
            f"{prev_report.get('git_sha')}"
        )
        return 1
    note(
        f"OK — {len(prev_rows)} baseline rows match "
        f"(baseline git_sha={prev_report.get('git_sha')}, "
        f"cpu threshold x{REGRESSION_FACTOR}, floor {MIN_CPU_MS}ms)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
