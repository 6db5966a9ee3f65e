"""Self-tests of the benchmark: the gate can fail, spans add up, counts repeat.

Run from the root of the repository with ``python3 -m pytest -q perfbench``.
The count test runs each workload traced twice (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing

EXPECTED = run.load_expected()

# Counts that later changes may cite: they must repeat exactly between runs.
REPEATING_COUNTS = (
    "series.mul.calls",
    "series.mul.term_pairs",
    "partitions.basis_members_of_length.members",
    "partitions.basis_members_of_length.useful_ratio",
    "partitions.enumerate_partitions.members",
)


def _seed_reports(workload: str) -> list[dict]:
    return [
        {"name": name, "passed": True, "checks": checks}
        for name, checks in EXPECTED[workload]["report_checks"].items()
    ]


def _seed_sides() -> list[dict]:
    return [
        {"key": key, "pairs": [["series", "product", True]], "product_sha256": digest}
        for key, digest in EXPECTED["sides-t64"]["product_sha256"].items()
    ]


@pytest.mark.parametrize("workload", ["battery-t24", "catalog-t40"])
def test_gate_passes_recorded_reports(workload):
    expected = EXPECTED[workload]["report_checks"]
    assert gate.gate_reports(0, _seed_reports(workload), expected) == (len(expected) + 2, [])


def test_gate_fails_a_report_with_passed_false():
    reports = _seed_reports("battery-t24")
    reports[3]["passed"] = False
    _, failures = gate.gate_reports(0, reports, EXPECTED["battery-t24"]["report_checks"])
    assert failures == [f"{reports[3]['name']}: passed is False"]


def test_gate_fails_a_missing_report():
    reports = _seed_reports("catalog-t40")
    gone = reports.pop()
    _, failures = gate.gate_reports(0, reports, EXPECTED["catalog-t40"]["report_checks"])
    assert failures == [f"{gone['name']}: missing"]


def test_gate_fails_an_unexpected_or_repeated_report():
    reports = _seed_reports("catalog-t40")
    reports.append(dict(reports[0]))
    reports.append({"name": "identity[new]", "passed": True, "checks": 1})
    _, failures = gate.gate_reports(0, reports, EXPECTED["catalog-t40"]["report_checks"])
    assert failures == [f"unexpected or repeated reports: {sorted(['identity[new]', reports[0]['name']])}"]


def test_gate_fails_fewer_checks_but_allows_more():
    reports = _seed_reports("battery-t24")
    reports[0]["checks"] -= 1
    reports[1]["checks"] += 5
    _, failures = gate.gate_reports(0, reports, EXPECTED["battery-t24"]["report_checks"])
    assert len(failures) == 1 and failures[0].startswith(reports[0]["name"])


def test_gate_fails_a_nonzero_exit_code():
    _, failures = gate.gate_reports(1, _seed_reports("battery-t24"), EXPECTED["battery-t24"]["report_checks"])
    assert failures == ["exit code 1, expected 0"]


def test_gate_sides_passes_recorded_digests():
    attempted, failures = gate.gate_sides(_seed_sides(), EXPECTED["sides-t64"]["product_sha256"])
    assert failures == [] and attempted == 1 + 2 * len(_seed_sides())


def test_gate_sides_fails_a_wrong_digest_and_unequal_sides():
    sides = _seed_sides()
    sides[0]["product_sha256"] = "0" * 64
    sides[1]["pairs"] = [["series", "product", False]]
    _, failures = gate.gate_sides(sides, EXPECTED["sides-t64"]["product_sha256"])
    assert len(failures) == 2
    assert any(f.startswith(f"{sides[1]['key']}: series side != product side") for f in failures)
    assert any(f.startswith(f"{sides[0]['key']}: product-side digest") for f in failures)


def test_gate_sides_fails_a_missing_key():
    sides = _seed_sides()[1:]
    _, failures = gate.gate_sides(sides, EXPECTED["sides-t64"]["product_sha256"])
    assert len(failures) == 1 and failures[0].startswith("keys ")


def test_seed_shuffles_keys_but_not_the_battery():
    keys = EXPECTED["catalog_keys"]
    assert run.make_job("battery-t24", 1, keys) == run.make_job("battery-t24", 2, keys)
    one, two = run.make_job("sides-t64", 1, keys), run.make_job("sides-t64", 2, keys)
    assert one["keys"] != two["keys"] and sorted(one["keys"]) == sorted(keys)
    assert run.make_job("catalog-t40", 1, keys)["argv"][1:-2] == one["keys"]


def test_summarize_subtracts_children_and_counts_recursion_once():
    spans = [
        ["series.add", 0.0, 20.0, -1, True],
        ["series.mul", 1.0, 3.0, 0, True],
        ["series.invert_unit", 4.0, 14.0, 0, True],
        ["series.invert_unit", 5.0, 9.0, 2, False],  # re-entrant call
        ["series.mul", 6.0, 7.0, 3, True],
        ["series.mul", 10.0, 11.0, 2, True],
    ]
    out = tracing.summarize(spans, {"series.mul.term_pairs": 12})
    assert out["series.add.self_s"] == 20.0 - 2.0 - 10.0
    assert out["series.mul.self_s"] == 4.0 and out["series.mul.calls"] == 3
    assert out["series.invert_unit.total_s"] == 10.0 and out["series.invert_unit.calls"] == 2
    assert out["series.invert_unit.mul_calls"] == 2
    assert out["series.mul.term_pairs"] == 12
    assert out["partitions.basis_members_of_length.useful_ratio"] == 0.0


def test_swap_reaches_dispatch_tables():
    def original():
        pass

    def wrapped():
        pass

    table = (("x", original), ("y", len))
    swapped = tracing._swap(table, original, wrapped)
    assert swapped == (("x", wrapped), ("y", len))
    mapping = {"x": original}
    assert tracing._swap(mapping, original, wrapped) is mapping and mapping["x"] is wrapped


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "battery-t24", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload,seeds", [("battery-t24", (1, 1)), ("catalog-t40", (1, 2)), ("sides-t64", (1, 2))])
def test_traced_counts_repeat_exactly(workload, seeds, tmp_path):
    keys = EXPECTED["catalog_keys"]
    runs = [run.run_child(run.make_job(workload, seed, keys), tmp_path / f"spans-{seed}.json") for seed in seeds]
    for name in REPEATING_COUNTS:
        assert runs[0]["layers"][name] == runs[1]["layers"][name], name
    assert all(runs[0]["layers"][name] > 0 for name in ("series.mul.calls", "series.mul.term_pairs"))
    spans = json.loads((tmp_path / f"spans-{seeds[1]}.json").read_text())
    mul = spans["labels"].index("series.mul")
    assert sum(1 for row in spans["spans"] if row[0] == mul) == runs[1]["layers"]["series.mul.calls"]
