"""Weight polynomials of basis members, indexed by length and largest part.

Three independent computations of the same table — direct enumeration, a
two-row recurrence, and a closed form with Gaussian-binomial factors — must
agree cell by cell.
"""

from __future__ import annotations

import pytest

from sipq import basis_gf, partitions
from sipq.basis_gf import (
    cross_check_tables,
    table_closed_form,
    table_enumerated,
    table_recurrence,
)
from sipq.partitions import PartitionClass
from sipq.series import FOUR_PARAM, Series
from sipq.sip import check_sip_gf_four_parameter, sip_gf_single_variable

BG1 = PartitionClass.BASIS_G1
BG2 = PartitionClass.BASIS_G2
BP1 = PartitionClass.BASIS_P1
BP2 = PartitionClass.BASIS_P2
ALL_BASES = (BG1, BG2, BP1, BP2)

TABLES = (table_enumerated, table_recurrence, table_closed_form)


def _cell(grid_of):
    """One entry ``(n, h)`` of a method, read off its grid built to that size."""
    return lambda cls, n, h: grid_of(cls, n, h)[n][h]


@pytest.mark.parametrize("table", [_cell(fn) for fn in TABLES], ids=("enum", "rec", "closed"))
class TestFrozenEntries:
    """Hand-computed single cells, checked against each computation."""

    def test_empty(self, table):
        assert table(BG1, 0, 0).terms == {(0, 0, 0, 0): 1}

    def test_single_row(self, table):
        assert table(BG1, 1, 1).terms == {(1, 0, 0, 0): 1}
        assert table(BG1, 1, 2).terms == {(1, 1, 0, 0): 1}
        # a single odd row is barred when odd positions must be even
        assert table(BG2, 1, 1).is_zero()
        assert table(BG2, 1, 2).terms == {(1, 1, 0, 0): 1}
        assert table(BP1, 1, 1).terms == {(1, 0, 0, 0): 1}
        assert table(BP2, 1, 1).is_zero()

    def test_g1_three_rows(self, table):
        # only (3,2,1) has length 3 and largest part 3
        assert table(BG1, 3, 3).terms == {(3, 1, 1, 1): 1}
        # only (5,4,2) has length 3 and largest part 5
        assert table(BG1, 3, 5).terms == {(4, 3, 2, 2): 1}

    def test_p_two_rows(self, table):
        # (2,2) is the only flat member; (2,1) joins it when the top row is free
        assert table(BP1, 2, 2).terms == {(1, 1, 1, 1): 1}
        assert table(BP2, 2, 2).terms == {(1, 1, 1, 1): 1, (1, 1, 1, 0): 1}

    def test_support_vanishes(self, table):
        assert table(BG1, 2, 5).is_zero()  # largest part above twice the length
        assert table(BG2, 2, 3).is_zero()  # odd largest part in an even-top class
        assert table(BP2, 4, 7).is_zero()
        assert table(BG1, 0, 1).is_zero()


class TestTableProperties:
    def test_non_basis_tag_rejected(self):
        for fn in TABLES:
            with pytest.raises(ValueError):
                fn(PartitionClass.G1, 2, 2)

    def test_all_coefficients_nonnegative(self):
        for basis in ALL_BASES:
            for row in table_recurrence(basis, 6, 12):
                for entry in row:
                    for e, coeff in entry.terms.items():
                        assert coeff > 0
                        assert all(x >= 0 for x in e)

    def test_g1_even_column_factors(self):
        """Appending one cell to the top row multiplies the table entry by b."""
        b = {(0, 1, 0, 0): 1}
        bmono = Series(FOUR_PARAM, b, None)
        grid = table_recurrence(BG1, 8, 16)
        for n in range(1, 9):
            for h in range(1, 9):
                assert (grid[n][2 * h - 1] * bmono).terms == grid[n][2 * h].terms

    @pytest.mark.parametrize("table", TABLES, ids=("enum", "rec", "closed"))
    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda c: c.value)
    def test_grid_has_the_size_asked_for(self, table, basis):
        grid = table(basis, 3, 5)
        assert [len(row) for row in grid] == [6] * 4
        assert grid[0][0] == Series.one(FOUR_PARAM)


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda c: c.value)
def test_cross_check(basis):
    report = cross_check_tables(basis, 10, 10)
    assert report.passed, report.failures
    assert report.name == f"basis-tables[{basis.value}]"
    assert report.checks >= 11 * 11


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda c: c.value)
@pytest.mark.parametrize("method", ("enumerated", "recurrence", "closed-form"))
def test_one_perturbed_coefficient_fails_the_cross_check(monkeypatch, basis, method):
    """Adding 1 to one coefficient of one length-2 entry of one method is reported."""
    row = table_enumerated(basis, 2, 4)[2]
    n, h = next((2, h) for h, entry in enumerate(row) if not entry.is_zero())

    def perturbed(fn):
        def table(cls, n_max, h_max):
            grid = fn(cls, n_max, h_max)
            grid[n][h] = grid[n][h] + Series.monomial(FOUR_PARAM, 1, min(grid[n][h].terms))
            return grid

        return table

    methods = tuple(
        (name, perturbed(fn) if name == method else fn) for name, fn in basis_gf._METHODS
    )
    assert any(name == method for name, _ in methods)
    monkeypatch.setattr(basis_gf, "_METHODS", methods)
    report = cross_check_tables(basis, 4, 4)
    assert not report.passed
    assert all(line.startswith(f"n={n} h={h} ") for line in report.failures), report.failures


@pytest.mark.parametrize("bounds", ((-1, 3), (3, -1), (-1, -1)))
def test_negative_bounds_are_refused(bounds):
    with pytest.raises(ValueError):
        cross_check_tables(BG1, *bounds)


@pytest.mark.parametrize("entry", ((-1, 0), (0, -1), (2, -1)), ids=("n=-1", "h=-1", "n=2,h=-1"))
@pytest.mark.parametrize(
    "table", [fn for _, fn in basis_gf._METHODS], ids=[name for name, _ in basis_gf._METHODS]
)
@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda c: c.value)
def test_every_method_refuses_a_negative_entry(basis, table, entry):
    with pytest.raises(ValueError, match="nonnegative"):
        table(basis, *entry)


# Faults in the window of the skeleton pass that every enumerated entry and
# every B_m reads: (rows, weight_max, largest) moved by one.
WINDOW_FAULTS = {
    "weight-minus-one": lambda rows, weight_max, largest: (rows, weight_max - 1, largest),
    "largest-minus-one": lambda rows, weight_max, largest: (rows, weight_max, largest - 1),
    "rows-minus-one": lambda rows, weight_max, largest: (rows - 1, weight_max, largest),
}


@pytest.mark.parametrize("fault", WINDOW_FAULTS.values(), ids=WINDOW_FAULTS.keys())
def test_off_by_one_window_fails_the_cross_check(monkeypatch, fault):
    """The tables and the assembly read their skeletons off one pass in a
    window of length, weight and top part; moving an edge by one loses
    members, and a check above the pass reports it for some basis (a basis
    with no skeleton on the edge loses nothing)."""
    real = partitions._skeleton_levels

    def moved(cls, rows, weight_max, largest, key):
        return real(cls, *fault(rows, weight_max, largest), key)

    monkeypatch.setattr(partitions, "_skeleton_levels", moved)
    reports = [
        report
        for basis in ALL_BASES
        for report in (
            cross_check_tables(basis, 8, 8),
            sip_gf_single_variable(basis.base_class, 8),
            check_sip_gf_four_parameter(basis.base_class, 8),
        )
    ]
    assert not all(report.passed for report in reports)


@pytest.mark.parametrize(
    "basis, members", zip(ALL_BASES, (65, 53, 252, 190)), ids=lambda c: getattr(c, "value", c)
)
def test_the_grid_builds_no_partition(partitions_built, basis, members):
    """The 12x12 grid sums its members' weights without building one, and its
    entries still count as many members as listing them one by one found."""
    assert cross_check_tables(basis, 12, 12).passed
    grid = table_enumerated(basis, 12, 12)
    held = sum(sum(entry.terms.values()) for row in grid for entry in row)
    assert partitions_built == [0]
    assert held == members


def test_a_recurrence_that_reads_its_own_row_as_zero_fails(monkeypatch):
    """The recurrence grid is filled by largest part ascending, so a step that
    reads ``(n, h - 1)`` finds it filled.  A step that found it zero, as a
    fill by largest part descending would, fails for the bases whose steps
    read their own row (G1 and P1); G2 and P2 never do."""
    real = basis_gf._recurrence

    def own_row_zero(cls, n, h, at):
        return real(cls, n, h, lambda m, g: Series.zero(FOUR_PARAM) if m == n else at(m, g))

    monkeypatch.setattr(basis_gf, "_recurrence", own_row_zero)
    passed = {basis: cross_check_tables(basis, 8, 8).passed for basis in ALL_BASES}
    assert passed == {BG1: False, BG2: True, BP1: False, BP2: True}


TERM_FAULTS = {
    "bottom-zero": lambda top, bottom: bottom == 0,
    "bottom-top": lambda top, bottom: bottom == top,
}


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda c: c.value)
@pytest.mark.parametrize("vanishes", TERM_FAULTS.values(), ids=TERM_FAULTS.keys())
def test_a_closed_form_term_zero_at_a_binomial_edge_fails(monkeypatch, basis, vanishes):
    """Every basis has closed-form entries whose binomial sits at each edge,
    ``bottom == 0`` and ``bottom == top``; a term that read either as zero
    fails the cross-check."""
    real = basis_gf._term

    def edge_zero(top, bottom, exps, extra=None):
        if vanishes(top, bottom):
            return Series.zero(FOUR_PARAM)
        return real(top, bottom, exps, extra)

    monkeypatch.setattr(basis_gf, "_term", edge_zero)
    assert not cross_check_tables(basis, 8, 8).passed
