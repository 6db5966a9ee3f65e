"""The partition-layer generators against a brute-force filter, and shown able to fail.

The oracle here is the filter the generators replaced: every partition of a
weight, built part by part with no class rule, kept when :func:`is_member`
accepts it.  It is only fast enough for small weights, so it lives in the
tests, as does the per-cap memo that the rolling row recursion of
:func:`class_weight_series` replaced, the reference for that function at
larger truncations.  The second half injects one fault into each generator
and checks that the verification layer above it reports the fault at a low
degree.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
import re
import tracemalloc

import pytest

from sipq import identities, partitions, sip
from sipq.basis_gf import cross_check_tables
from sipq.identities import combinatorial_side, registry, spec_by_key, verify_spec
from sipq.partitions import (
    OMEGA_IDENTITY,
    Partition,
    PartitionClass,
    RowRule,
    basis_members_of_length,
    basis_weight_grid,
    basis_weight_sums,
    class_weight_series,
    enumerate_partitions,
    is_member,
    members_by_weight,
    omega_exponents,
)
from sipq.qseries import PochFactor, truncated_infinite_product
from sipq.series import FOUR_PARAM, SINGLE_Q, Series, SubstitutionMap
from sipq.sip import check_sip_gf_four_parameter, sip_gf_single_variable, verify_sip_property

ORACLE_WEIGHT = 20
Q_ONLY = SubstitutionMap(FOUR_PARAM, SINGLE_Q, ((1,), (1,), (1,), (1,)))
BASES = (
    PartitionClass.BASIS_G1,
    PartitionClass.BASIS_G2,
    PartitionClass.BASIS_P1,
    PartitionClass.BASIS_P2,
)
ROW_CLASSES = tuple(cls for cls in PartitionClass if not cls.is_basis)
# Every weight map the package builds.
PACKAGE_MAPS = {
    "identity": OMEGA_IDENTITY,
    "q": sip._OMEGA_TO_Q,
    "xzq": identities.OMEGA_TO_XZQ,
    "xq": identities.OMEGA_TO_XQ,
    "zq": identities.OMEGA_TO_ZQ,
    "bg": identities.OMEGA_TO_BG,
}
REFERENCE_TRUNC = 40
# The oracles' own row rules, written from the class definitions and not read
# from the package, so that a wrong rule record cannot pass both a generator
# and its oracle: (distinct parts, parity of the 1-based row index whose parts
# must be even, or None).
ORACLE_RULES = {
    PartitionClass.ALL: (False, None),
    PartitionClass.STRICT: (True, None),
    PartitionClass.G1: (True, 0),  # distinct; even-indexed parts even
    PartitionClass.G2: (True, 1),  # distinct; odd-indexed parts even
    PartitionClass.P1: (False, 0),  # even-indexed parts even
    PartitionClass.P2: (False, 1),  # odd-indexed parts even
}


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


def memo_weight_series(cls: PartitionClass, trunc: int) -> Series:
    """The class weight series from a memo of tuple-keyed cells.

    ``cells[parity, rem][cap]`` holds the exponent vectors and counts of every
    way to fill the rows from one of that row-index parity down with parts at
    most ``cap`` and weight exactly ``rem``: the cell one cap lower plus, when
    the cap is an allowed part, that part's monomial times the cell for the
    next row (capped one lower in a strict class).  Every cap keeps its own
    dict, so it is only fit for a test.
    """
    strict, even_row = ORACLE_RULES[cls]
    cells: dict[tuple[int, int], list[dict[tuple[int, int, int, int], int]]] = {}
    for rem in range(trunc + 1):
        for parity in (0, 1):
            row = [{(0, 0, 0, 0): 1} if rem == 0 else {}]
            for cap in range(1, rem + 1):
                acc = dict(row[-1])
                if not (parity == even_row and cap % 2):
                    tail_rem = rem - cap
                    tail_cap = cap - 1 if strict else cap
                    tail = cells[1 - parity, tail_rem][min(tail_cap, tail_rem)]
                    hi, lo = (cap + 1) // 2, cap // 2
                    for (a, b, c, d), count in tail.items():
                        key = (a + hi, b + lo, c, d) if parity else (a, b, c + hi, d + lo)
                        acc[key] = acc.get(key, 0) + count
                row.append(acc)
            cells[parity, rem] = row
    # Each weight's terms have that weight as their degree, so none repeats.
    return Series(
        FOUR_PARAM, {k: c for w in range(trunc + 1) for k, c in cells[1, w][w].items()}, trunc
    )


def skeleton_candidates(cls: PartitionClass, length: int) -> list[Partition]:
    """Every basis member of one length, by filtering all gap sequences.

    A basis member is fixed by its last part (1 or 2) and its gaps, so this
    finds every member of any weight without the generator's parity rule or
    pruning.  The gaps, {1, 2} in a strict class and {0, 1} otherwise, come
    from :data:`ORACLE_RULES`.
    """
    if length == 0:
        return [Partition()]
    found = []
    for last in (1, 2):
        strict, _ = ORACLE_RULES[cls.base_class]
        for gaps in product((1, 2) if strict else (0, 1), repeat=length - 1):
            parts = [last]
            for g in gaps:
                parts.append(parts[-1] + g)
            lam = Partition(tuple(reversed(parts)))
            if is_member(cls, lam):
                found.append(lam)
    return found


def _top(lam: Partition) -> int:
    return lam[0] if lam else 0


def _weights(members, weight_map: SubstitutionMap = OMEGA_IDENTITY) -> Series:
    """The exact sum of the weights of ``members``, each pushed through ``weight_map``."""
    image_of = weight_map.map_exps
    return Series(
        weight_map.target, Counter(image_of(omega_exponents(lam)) for lam in members), None
    )


def _boulet_strict(trunc: int, abc_sign: int) -> Series:
    """Boulet's product for strict partitions, with the sign of the
    ``(-abc;Q)_inf`` factor given (-1 for the true product)."""
    q = (1, 1, 1, 1)
    factors = (
        PochFactor(-1, (1, 0, 0, 0), q),
        PochFactor(abc_sign, (1, 1, 1, 0), q),
        PochFactor(1, (1, 1, 0, 0), q, inverted=True),
    )
    return truncated_infinite_product(FOUR_PARAM, factors, trunc)


class TestAgainstTheFilter:
    @pytest.mark.parametrize("cls", list(PartitionClass), ids=lambda c: c.value)
    def test_enumerate_partitions(self, cls):
        for w in range(ORACLE_WEIGHT + 1):
            assert enumerate_partitions(cls, w) == oracle_members(cls, w), w

    @pytest.mark.parametrize("cls", list(PartitionClass), ids=lambda c: c.value)
    def test_members_by_weight(self, cls):
        """One walk yields every weight's members in the order the filter and
        :func:`enumerate_partitions` give them; a lower weight bound drops the
        lighter lists and nothing else."""
        walk = members_by_weight(cls, ORACLE_WEIGHT)
        assert len(walk) == ORACLE_WEIGHT + 1
        for w, members in enumerate(walk):
            assert members == oracle_members(cls, w) == enumerate_partitions(cls, w), w
        for low in (1, 7, ORACLE_WEIGHT):
            assert members_by_weight(cls, ORACLE_WEIGHT, low) == walk[low:], low

    @pytest.mark.parametrize(
        "bounds", ((-1, 0), (4, -1), (4, 5)), ids=("max", "min", "min-above-max")
    )
    def test_members_by_weight_refuses_a_bad_window(self, bounds):
        with pytest.raises(ValueError, match="0 <= weight_min <= weight_max"):
            members_by_weight(PartitionClass.ALL, *bounds)

    def test_every_catalog_map_is_a_package_map(self):
        assert {spec.weight_map for spec in registry()} <= set(PACKAGE_MAPS.values())

    @pytest.mark.parametrize("weight_map", PACKAGE_MAPS.values(), ids=PACKAGE_MAPS.keys())
    def test_row_keys_pack_each_mapped_part(self, weight_map):
        """A row key, built from the packed images of the row's two letters,
        is the packed image of the part's own exponents on that row."""
        key = partitions._row_keys(weight_map)
        for index in (1, 2):
            for part in range(1, 65):
                hi, lo = (part + 1) // 2, part // 2
                exps = (hi, lo, 0, 0) if index % 2 else (0, 0, hi, lo)
                assert key(index, part) == weight_map.target.pack(weight_map.map_exps(exps))

    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_basis_members_of_length(self, cls):
        by_weight = [oracle_members(cls, w) for w in range(ORACLE_WEIGHT + 1)]
        for n in range(13):
            every = skeleton_candidates(cls, n)
            every.sort(reverse=True)
            weights = sorted(lam.weight for lam in every)
            low, high = weights[0], weights[-1]
            for bound in {low - 1, low, (low + high) // 2, high, 2 * n * n}:
                got = basis_members_of_length(cls, n, bound)
                assert got == tuple(b for b in every if b.weight <= bound)
            # Within the filter's reach, compare with every partition too.
            for bound in range(ORACLE_WEIGHT + 1):
                expected = [
                    lam for w in range(bound + 1) for lam in by_weight[w] if len(lam) == n
                ]
                got = basis_members_of_length(cls, n, bound)
                assert sorted(got) == sorted(expected), (n, bound)

    @pytest.mark.parametrize(
        "weight_map, weight_max", ((Q_ONLY, 60), (OMEGA_IDENTITY, 40)), ids=("q", "four-param")
    )
    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_basis_weight_sums(self, cls, weight_map, weight_max):
        """Every ``B_m`` at every weight bound against the skeletons the
        bottom-up generator lists, filtered by weight."""
        listed = [basis_members_of_length(cls, m, weight_max) for m in range(weight_max + 1)]
        for bound in range(weight_max + 1):
            sums = basis_weight_sums(cls, weight_max, bound, weight_map)
            assert len(sums) == weight_max + 1
            for m, got in enumerate(sums):
                expected = _weights((lam for lam in listed[m] if lam.weight <= bound), weight_map)
                assert got == expected, (bound, m)

    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_basis_weight_grid_against_every_member(self, cls):
        """Every (length, top part) entry through 12 x 24, to degree
        ``ORACLE_WEIGHT``, against every partition of each weight that passes
        :func:`is_member`, filtered by length and top part."""
        grid = basis_weight_grid(cls, 12, 24)
        members = [lam for w in range(ORACLE_WEIGHT + 1) for lam in oracle_members(cls, w)]
        for n in range(13):
            for h in range(25):
                expected = _weights(lam for lam in members if len(lam) == n and _top(lam) == h)
                got = grid[n][h].truncate(ORACLE_WEIGHT)
                assert got == expected.truncate(ORACLE_WEIGHT), (n, h)

    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_basis_weight_grid_by_top_part(self, cls):
        """Every (length, top part) entry through 16 x 34 against every gap
        sequence of that length, filtered by top part: the whole entry."""
        grid = basis_weight_grid(cls, 16, 34)
        for n in range(17):
            every = skeleton_candidates(cls, n)
            for h in range(35):
                assert grid[n][h] == _weights(b for b in every if _top(b) == h), (n, h)

    @pytest.mark.parametrize("cls", BASES, ids=lambda c: c.value)
    def test_members_of_length_are_the_stacks(self, cls, partitions_built):
        """The listed skeletons and the summed ones are the same stacks."""
        grid = basis_weight_grid(cls, 10, 20)
        built = partitions_built[0]
        for n in range(11):
            listed = basis_members_of_length(cls, n, 200)
            assert sum(grid[n], Series.zero(FOUR_PARAM)) == _weights(listed), n
        assert built == 0

    @pytest.mark.parametrize("cls", ROW_CLASSES, ids=lambda c: c.value)
    def test_class_weight_series(self, cls):
        for trunc in (0, 1, 7, ORACLE_WEIGHT):
            expected = Series(
                FOUR_PARAM,
                Counter(
                    omega_exponents(lam)
                    for w in range(trunc + 1)
                    for lam in oracle_members(cls, w)
                ),
                trunc,
            )
            got = class_weight_series(cls, trunc)
            assert got.terms == expected.terms
            assert got.trunc == trunc

    @pytest.mark.parametrize("cls", ROW_CLASSES, ids=lambda c: c.value)
    def test_class_weight_series_matches_the_memo(self, cls):
        for trunc in range(REFERENCE_TRUNC + 1):
            expected = memo_weight_series(cls, trunc)
            got = class_weight_series(cls, trunc)
            assert got == expected, trunc
            assert got.bound == expected.bound, trunc

    @pytest.mark.parametrize(
        "spec",
        [spec for spec in registry() if spec.partition_class is not None],
        ids=lambda spec: spec.key,
    )
    def test_combinatorial_side(self, spec):
        # Each member's weight pushed through the map as a whole, against the
        # recursion that maps it part by part.
        for trunc in range(ORACLE_WEIGHT + 1):
            images = [
                spec.weight_map.map_exps(omega_exponents(lam))
                for w in range(trunc + 1)
                for lam in oracle_members(spec.partition_class, w)
            ]
            expected = Series(spec.ring, Counter(images), trunc)
            got = combinatorial_side(spec, trunc)
            assert got == expected, trunc
            assert got.trunc == trunc, trunc
            assert got.bound >= max(max(map(abs, image)) for image in images), trunc

    @pytest.mark.parametrize("trunc", (0, 1, 2, 8, 24, 40))
    def test_strict_class_is_boulets_distinct_parts_product(self, trunc):
        # (-a;Q)_inf (-abc;Q)_inf / (ab;Q)_inf with Q = abcd.
        assert class_weight_series(PartitionClass.STRICT, trunc) == _boulet_strict(trunc, -1)

    def test_boulet_strict_product_with_a_flipped_sign_differs(self):
        assert class_weight_series(PartitionClass.STRICT, 8) != _boulet_strict(8, 1)

    def test_class_weight_series_memory(self):
        # The rolling rows peaked at 3.0 MiB here; a memo with one dict per
        # cap peaked at 52.8 MiB.
        tracemalloc.start()
        try:
            class_weight_series(PartitionClass.ALL, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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


class _EvenLastPartFour(RowRule):
    """Row rules whose skeletons end on 1 or 4 instead of 1 or 2."""

    __slots__ = ()
    last_parts = (1, 4)


# Faults in the basis rules, as the skeleton recursion reads them.
SKELETON_RULE_FAULTS = {
    "flipped-gap": lambda rule: rule._replace(strict=not rule.strict),
    "flipped-parity": lambda rule: rule._replace(even_row=1 - rule.even_row),
    "wrong-last-part": lambda rule: _EvenLastPartFour(*rule),
}


class TestInjectedFaultsAreCaught:
    """Each fault is reported by a check above the generator, by degree 8."""

    @pytest.mark.parametrize(
        "fault", SKELETON_RULE_FAULTS.values(), ids=SKELETON_RULE_FAULTS.keys()
    )
    @pytest.mark.parametrize("cls", [basis.base_class for basis in BASES], ids=lambda c: c.value)
    def test_skeleton_recursion_with_a_wrong_rule(self, monkeypatch, cls, fault):
        """The fault sits in the rules the recursion reads, and nowhere else:
        the class series, the recurrence and the closed form keep the true
        ones.  Every check built on the recursion reports it by degree 8."""
        real = partitions._skeleton_levels
        rule = PartitionClass.__dict__["rule"]

        def faulty(*args):
            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(PartitionClass, "rule", property(lambda c: fault(rule.fget(c))))
                yield from real(*args)

        monkeypatch.setattr(partitions, "_skeleton_levels", faulty)
        single = sip_gf_single_variable(cls, 8)
        assert not single.passed
        assert _first_degree(single.failures, r"degree (\d+):") <= 8
        four = check_sip_gf_four_parameter(cls, 8)
        assert not four.passed
        assert _first_degree(four.failures, r"degree (\d+):") <= 8
        tables = cross_check_tables(cls.basis, 8, 8)
        assert not tables.passed
        assert _first_degree(tables.failures, r"^n=(\d+)") <= 8

    def test_g1_without_strictness(self, monkeypatch):
        monkeypatch.setitem(partitions._RULES, PartitionClass.G1, RowRule(False, 0))
        report = verify_spec(spec_by_key("g1-four"), 8)
        assert not report.passed
        assert _first_degree(report.failures, r"degree-(\d+) slices") <= 8

    def test_p2_with_flipped_parity_index(self, monkeypatch):
        monkeypatch.setitem(partitions._RULES, PartitionClass.P2, RowRule(False, 0))
        report = verify_spec(spec_by_key("p2-four"), 8)
        assert not report.passed
        assert _first_degree(report.failures, r"degree-(\d+) slices") <= 8

    @pytest.mark.parametrize("cls", (PartitionClass.G1, PartitionClass.G2), ids=lambda c: c.value)
    def test_strict_class_with_non_strict_gaps(self, monkeypatch, cls):
        monkeypatch.setattr(RowRule, "gaps", property(lambda rule: (0, 1)))
        single = sip_gf_single_variable(cls, 8)
        assert not single.passed
        assert _first_degree(single.failures, r"degree (\d+):") <= 8
        four = check_sip_gf_four_parameter(cls, 8)
        assert not four.passed
        assert _first_degree(four.failures, r"degree (\d+):") <= 8

    def test_g2_with_flipped_parity_row(self, monkeypatch):
        monkeypatch.setitem(partitions._RULES, PartitionClass.G2, RowRule(True, 0))
        report = cross_check_tables(PartitionClass.BASIS_G2, 6, 6)
        assert not report.passed
        assert min(int(n) for n in re.findall(r"^n=(\d+)", "\n".join(report.failures), re.M)) <= 3

    @pytest.mark.parametrize(
        "cls, key, walk_as_strict",
        (
            (PartitionClass.G1, "g1-four", False),  # a part reused
            (PartitionClass.P1, "p1-four", True),  # each part used once
        ),
        ids=("strict-walked-upward", "non-strict-walked-downward"),
    )
    def test_weight_series_walked_the_wrong_way(self, monkeypatch, cls, key, walk_as_strict):
        rems = partitions._rems
        monkeypatch.setattr(
            partitions, "_rems", lambda strict, cap, trunc: rems(walk_as_strict, cap, trunc)
        )
        report = verify_spec(spec_by_key(key), 8)
        assert not report.passed
        assert _first_degree(report.failures, r"degree-(\d+) slices") <= 8
        four = check_sip_gf_four_parameter(cls, 8)
        assert not four.passed
        assert _first_degree(four.failures, r"degree (\d+):") <= 8

    @pytest.mark.parametrize("key", ("g1-xzq", "p1-bg"))
    def test_weight_map_without_its_d_image(self, monkeypatch, key):
        map_exps = SubstitutionMap.map_exps
        monkeypatch.setattr(
            SubstitutionMap, "map_exps", lambda self, exps: map_exps(self, (*exps[:3], 0))
        )
        report = verify_spec(spec_by_key(key), 8)
        assert not report.passed
        assert _first_degree(report.failures, r"degree-(\d+) slices") <= 8

    def test_skeleton_bound_off_by_one(self, monkeypatch):
        """The weight cut one too eager drops the skeletons at the bound, so
        the members that are their own skeleton find no split."""
        real = partitions._skeleton_levels
        def cut_short(cls, rows, weight_max, largest, key):
            return real(cls, rows, weight_max - 1, largest, key)

        monkeypatch.setattr(partitions, "_skeleton_levels", cut_short)
        failures = [
            line for w in range(9) for line in verify_sip_property(PartitionClass.P1, w).failures
        ]
        assert failures
        assert all("0 valid splits" in line for line in failures), failures
