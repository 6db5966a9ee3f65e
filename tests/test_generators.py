"""The partition-layer generators against a brute-force filter, and shown able to fail.

The oracle here is the filter the generators replaced: every partition of a
weight, built part by part with no class rule, kept when :func:`is_member`
accepts it.  It is only fast enough for small weights, so it lives in the
tests.  The second half injects one fault into each generator and checks
that the verification layer above it reports the fault at a low degree.
"""

from __future__ import annotations

from functools import cache
from itertools import product
import re

import pytest

from sipq import partitions
from sipq.identities import spec_by_key, verify_spec
from sipq.partitions import (
    Partition,
    PartitionClass,
    basis_members_of_length,
    class_weight_series,
    enumerate_basis_by_shape,
    enumerate_partitions,
    is_member,
    omega_exponents,
)
from sipq.series import FOUR_PARAM, Series
from sipq.sip import check_sip_gf_four_parameter, sip_gf_single_variable

ORACLE_WEIGHT = 20
BASES = (
    PartitionClass.BASIS_G1,
    PartitionClass.BASIS_G2,
    PartitionClass.BASIS_P1,
    PartitionClass.BASIS_P2,
)
ROW_CLASSES = tuple(cls for cls in PartitionClass if not cls.is_basis)


def _partition_gen(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_gen(n - first, first):
            yield (first,) + rest


@cache
def _all_partitions(weight: int) -> tuple[Partition, ...]:
    return tuple(Partition(p) for p in _partition_gen(weight, weight))


def oracle_members(cls: PartitionClass, weight: int) -> list[Partition]:
    return [lam for lam in _all_partitions(weight) if is_member(cls, lam)]


def skeleton_candidates(cls: PartitionClass, length: int) -> list[Partition]:
    """Every basis member of one length, by filtering all gap sequences.

    A basis member is fixed by its last part (1 or 2) and its gaps, so this
    finds every member of any weight without the generator's parity rule or
    pruning.
    """
    if length == 0:
        return [Partition()]
    found = []
    for last in (1, 2):
        for gaps in product(cls.gaps, repeat=length - 1):
            parts = [last]
            for g in gaps:
                parts.append(parts[-1] + g)
            lam = Partition(tuple(reversed(parts)))
            if is_member(cls, lam):
                found.append(lam)
    return found


class TestAgainstTheFilter:
    @pytest.mark.parametrize("cls", list(PartitionClass), ids=lambda c: c.value)
    def test_enumerate_partitions(self, cls):
        for w in range(ORACLE_WEIGHT + 1):
            assert enumerate_partitions(cls, w) == oracle_members(cls, w), w

    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_basis_members_of_length(self, cls):
        by_weight = [oracle_members(cls, w) for w in range(ORACLE_WEIGHT + 1)]
        for n in range(13):
            every = skeleton_candidates(cls, n)
            weights = sorted(lam.weight for lam in every)
            low, high = weights[0], weights[-1]
            every.sort(reverse=True)
            for bound in {low - 1, low, (low + high) // 2, high, 2 * n * n}:
                got = basis_members_of_length(cls, n, bound)
                assert got == tuple(b for b in every if b.weight <= bound)
            for h in range(2 * n + 2):
                shaped = enumerate_basis_by_shape(cls, n, h)
                assert shaped == [b for b in every if (b[0] if b else 0) == h], (n, h)
            # Within the filter's reach, compare with every partition too.
            for bound in range(ORACLE_WEIGHT + 1):
                expected = [
                    lam for w in range(bound + 1) for lam in by_weight[w] if len(lam) == n
                ]
                got = basis_members_of_length(cls, n, bound)
                assert sorted(got) == sorted(expected), (n, bound)

    @pytest.mark.parametrize("cls", ROW_CLASSES, ids=lambda c: c.value)
    def test_class_weight_series(self, cls):
        for trunc in (0, 1, 7, ORACLE_WEIGHT):
            expected = Series.from_terms(
                FOUR_PARAM,
                (
                    (omega_exponents(lam).vector(), 1)
                    for w in range(trunc + 1)
                    for lam in oracle_members(cls, w)
                ),
                trunc,
                complete=False,
            )
            got = class_weight_series(cls, trunc)
            assert got.terms == expected.terms
            assert (got.trunc, got.complete) == (trunc, False)

    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_class_weight_series_rejects_basis_tags(self, cls):
        with pytest.raises(ValueError):
            class_weight_series(cls, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            basis_members_of_length(PartitionClass.BASIS_G1, -1, 4)


def _first_degree(failures: tuple[str, ...], pattern: str) -> int:
    degrees = [int(m.group(1)) for line in failures for m in [re.search(pattern, line)] if m]
    assert degrees, failures
    return min(degrees)


class TestInjectedFaultsAreCaught:
    """Each fault is reported by a check above the generator, by degree 8."""

    def test_g1_without_strictness(self, monkeypatch):
        monkeypatch.setitem(partitions._RULES, PartitionClass.G1, (False, 0))
        report = verify_spec(spec_by_key("g1-four"), 8)
        assert not report.passed
        assert _first_degree(report.failures, r"degree-(\d+) slices") <= 8

    def test_p2_with_flipped_parity_index(self, monkeypatch):
        monkeypatch.setitem(partitions._RULES, PartitionClass.P2, (False, 0))
        report = verify_spec(spec_by_key("p2-four"), 8)
        assert not report.passed
        assert _first_degree(report.failures, r"degree-(\d+) slices") <= 8

    def test_skeleton_bound_off_by_one(self, monkeypatch):
        least_above = partitions._least_above
        monkeypatch.setattr(
            partitions,
            "_least_above",
            lambda part, rows, min_gap: least_above(part, rows, min_gap) + 1,
        )
        single = sip_gf_single_variable(PartitionClass.P1, 8)
        assert not single.passed
        assert _first_degree(single.failures, r"weight (\d+):") <= 8
        four = check_sip_gf_four_parameter(PartitionClass.P1, 8)
        assert not four.passed
        assert _first_degree(four.failures, r"degree (\d+):") <= 8
