"""Correctness gate applied to every child run of the benchmark.

Each function returns ``(attempted, failures)``: the number of checks made
and one line per failed check.  A failed check is counted, never raised, so a
run with a wrong output still finishes and reports its share of failures.

The gate compares parsed outputs with values recorded in ``expected.json``,
not a byte digest of stdout, so that reports may gain fields without failing
it.
"""

from __future__ import annotations

from collections import Counter


def gate_reports(exit_code: int, reports: list[dict], expected: dict[str, int]) -> tuple[int, list[str]]:
    """Gate the reports of one ``sipq verify`` run.

    ``expected`` maps each report name seen when the benchmark was recorded to
    the number of checks it made then.  One check covers the exit code, one
    the set of report names, and one each expected report: it must be
    present, have passed and have made at least its recorded number of
    checks (fewer means the run did less work; more is allowed).
    """
    failures: list[str] = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    seen = Counter(r["name"] for r in reports)
    unexpected = sorted(name for name in seen if name not in expected or seen[name] > 1)
    if unexpected:
        failures.append(f"unexpected or repeated reports: {unexpected}")
    by_name = {r["name"]: r for r in reports}
    for name, seed_checks in sorted(expected.items()):
        report = by_name.get(name)
        if report is None:
            failures.append(f"{name}: missing")
        elif report["passed"] is not True:
            failures.append(f"{name}: passed is {report['passed']!r}")
        elif report["checks"] < seed_checks:
            failures.append(f"{name}: {report['checks']} checks, recorded {seed_checks}")
    return 2 + len(expected), failures


def gate_sides(sides: list[dict], expected_sha256: dict[str, str]) -> tuple[int, list[str]]:
    """Gate one run of the sides workload.

    One check covers the set of keys, then for every key one per pairwise
    side comparison (the two sides must be equal) and one for the SHA-256 of
    its canonically sorted product-side terms.
    """
    failures: list[str] = []
    attempted = 1
    keys = sorted(entry["key"] for entry in sides)
    if keys != sorted(expected_sha256):
        failures.append(f"keys {keys} differ from the recorded {sorted(expected_sha256)}")
    for entry in sides:
        key = entry["key"]
        for left, right, equal in entry["pairs"]:
            attempted += 1
            if equal is not True:
                failures.append(f"{key}: {left} side != {right} side")
        attempted += 1
        if entry["product_sha256"] != expected_sha256.get(key):
            failures.append(f"{key}: product-side digest {entry['product_sha256']} differs from the recorded one")
    return attempted, failures
