#!/usr/bin/env python3
"""CI gate over the fairmatch_bench JSON report: schema and completeness.

Usage: check_bench_report.py BENCH_smoke.json path/to/fairmatch_bench

Fails (exit 1) when the report is malformed, any registered figure is
missing or empty, or any row lacks the schema's fields / carries a
negative or non-numeric measurement — i.e. whenever a figure or matcher
silently dropped out of the sweep.

What the rows promise beyond their shape (deterministic columns equal
across lanes or rates, updated == rebuilt, recovered == uncrashed, exact
overload partitions, ...) is declared on each figure's FigureSpec and
checked by fairmatch_bench itself, which exits 3 when a promise breaks.
"""
import json
import subprocess
import sys

NUMERIC_FIELDS = (
    "io_accesses",
    "cpu_ms",
    "cpu_ms_min",
    "cpu_ms_stddev",
    "mem_mb",
    "pairs",
    "loops",
    "seed",
)
STRING_FIELDS = ("section", "x", "algorithm")


def fail(message):
    print(f"check_bench_report: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} REPORT.json FAIRMATCH_BENCH_BINARY")
    report_path, bench_binary = sys.argv[1], sys.argv[2]

    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {report_path}: {e}")

    if report.get("schema") != "fairmatch-bench/v1":
        fail(f"unexpected schema {report.get('schema')!r}")

    registered = set(
        subprocess.run(
            [bench_binary, "--list-names"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.split()
    )
    reported = set(report.get("figures", {}))
    if reported != registered:
        fail(
            f"figure set mismatch: missing={sorted(registered - reported)} "
            f"unexpected={sorted(reported - registered)}"
        )

    rows = 0
    for figure, figure_rows in report["figures"].items():
        if not figure_rows:
            fail(f"figure {figure!r} has no rows")
        for row in figure_rows:
            for field in STRING_FIELDS:
                if not isinstance(row.get(field), str):
                    fail(f"{figure}: row missing string field {field!r}: {row}")
            if not row["x"] or not row["algorithm"]:
                fail(f"{figure}: empty x/algorithm in row {row}")
            for field in NUMERIC_FIELDS:
                value = row.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    fail(f"{figure}: bad {field}={value!r} in row {row}")
            rows += 1

    print(
        f"check_bench_report: OK — {len(reported)} figures, {rows} rows, "
        f"scale={report.get('scale')}, git_sha={report.get('git_sha')}"
    )


if __name__ == "__main__":
    main()
