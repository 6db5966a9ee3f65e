"""End-to-end acceptance battery.

Each test below is one acceptance criterion, run at its full stated scale, so
the ``pytest -v`` report carries exactly one pass/fail line per criterion.
Everything is exact integer arithmetic; no tolerance thresholds appear
anywhere.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from sipq.basis_gf import cross_check_tables
from sipq.cli import main
from sipq.identities import (
    combinatorial_side,
    product_side,
    spec_by_key,
    verify_partial_sums,
    verify_spec,
    verify_substitution_consistency,
)
from sipq.partitions import (
    PartitionClass,
    conjugate,
    enumerate_partitions,
    omega_exponents,
    stats,
)
from sipq.qseries import (
    A_INFINITY,
    check_q_gauss,
    check_qbinomial_recurrences,
    check_qbinomial_theorem,
)
from sipq.sip import (
    check_sip_gf_four_parameter,
    sip_gf_single_variable,
    verify_sip_property,
)

CLASSES = (
    PartitionClass.G1,
    PartitionClass.G2,
    PartitionClass.P1,
    PartitionClass.P2,
)


def test_c01_four_parameter_identities_to_degree_24():
    started = time.perf_counter()
    for key in ("g1-four", "g2-four", "p1-four", "p2-four"):
        report = verify_spec(spec_by_key(key), 24)
        assert report.passed, (key, report.failures)
    assert time.perf_counter() - started < 60


def test_c02_all_partitions_and_three_variable_identities_to_degree_20():
    for key in ("boulet-p", "andrews-xzq"):
        report = verify_spec(spec_by_key(key), 20)
        assert report.passed, (key, report.failures)
    spec = spec_by_key("boulet-p")
    expected = {
        (2, 2, 0, 0): 1,
        (2, 1, 1, 0): 2,
        (2, 0, 2, 0): 1,
        (1, 1, 1, 1): 1,
    }
    assert product_side(spec, 4).degree_slice(4) == expected
    assert combinatorial_side(spec, 4).degree_slice(4) == expected


def test_c03_specialized_identities_to_q_degree_24():
    keys = (
        "g1-oddparts", "g2-oddparts",
        "g1-altsum", "g2-altsum",  # includes the rewritten infinite products
        "g1-xzq", "g2-xzq", "p1-xzq", "p2-xzq",
        "g1-bg", "g2-bg", "p1-bg", "p2-bg",
    )
    for key in keys:
        report = verify_spec(spec_by_key(key), 24)
        assert report.passed, (key, report.failures)


def test_c04_basis_tables_three_ways_on_the_20_by_20_grid():
    for cls in CLASSES:
        report = cross_check_tables(cls.basis, 20, 20)
        assert report.passed, (cls.value, report.failures)


def test_c05_unique_decomposition_up_to_weight_18():
    for cls in CLASSES:
        report = verify_sip_property(cls, 18)
        assert report.passed, (cls.value, report.failures)


def test_c06_assembled_series_match_enumeration():
    for cls in CLASSES:
        counts = sip_gf_single_variable(cls, 20)
        assert counts.passed, (cls.value, counts.failures)
        weights = check_sip_gf_four_parameter(cls, 18)
        assert weights.passed, (cls.value, weights.failures)


def test_c07_telescoping_partial_sums_to_n_8():
    for cls in (PartitionClass.P1, PartitionClass.P2):
        report = verify_partial_sums(cls, 8, 32)
        assert report.passed, (cls.value, report.failures)


def test_c08_binomial_and_gauss_summation_layer():
    rec = check_qbinomial_recurrences(12)
    assert rec.passed, rec.failures

    for z in ((1, (1, 2, 1, 1)), (1, (1, 1, 0, 1))):
        thm = check_qbinomial_theorem(8, z)
        assert thm.passed, (z, thm.failures)

    for b_param in ((-1, (0, 1, 0, 0)), (-1, (0, 0, -1, 0))):
        report = check_q_gauss(A_INFINITY, b_param, (1, (1, 1, 0, 0)), 24)
        assert report.passed, report.failures
    generic = check_q_gauss((1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)), (1, (2, 2, 1, 1)), 24)
    assert generic.passed, generic.failures


def test_c09_statistics_agree_for_every_partition_up_to_weight_20():
    for w in range(21):
        for lam in enumerate_partitions(PartitionClass.ALL, w):
            om = omega_exponents(lam)
            st = stats(lam)
            assert om.a - om.b + om.d - om.c == st.bg_rank
            assert (om.a - om.b) + (om.c - om.d) == st.odd_parts
            assert stats(conjugate(lam)).odd_parts == st.alt_sum
    for report in verify_substitution_consistency(20):
        assert report.passed, (report.name, report.failures)


def test_c10_full_battery_is_byte_identical_across_runs():
    cmd = [
        sys.executable,
        "-c",
        "from sipq.cli import entry; entry()",
        "verify",
        "--all",
        "--trunc",
        "16",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=240)
    second = subprocess.run(cmd, capture_output=True, timeout=240)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty reports


def test_c11_full_battery_passes_at_trunc_32(capsys):
    started = time.perf_counter()
    code = main(["verify", "--all", "--trunc", "32"])
    elapsed = time.perf_counter() - started
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert len(results) == 44
    assert [r["name"] for r in results if not r["passed"]] == []
    assert elapsed < 60
