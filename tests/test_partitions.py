"""Partitions, their statistics, and the class/basis predicates.

Expected values in the frozen tables below were computed by hand from the
definitions before the library existed; the enumeration functions are the
package's ground truth, so they get the heaviest scrutiny here.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st
import pytest

from sipq.partitions import (
    Partition,
    PartitionClass,
    basis_members_of_length,
    basis_weight_grid,
    conjugate,
    enumerate_partitions,
    is_member,
    omega_exponents,
    stats,
)
from sipq.series import FOUR_PARAM, Series


def partitions(max_weight: int = 30) -> st.SearchStrategy[Partition]:
    return (
        st.lists(st.integers(min_value=1, max_value=12), max_size=8)
        .map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))
        .filter(lambda lam: lam.weight <= max_weight)
    )


class TestPartitionType:
    def test_validates_weak_decrease(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((3, -1))

    @pytest.mark.parametrize("parts", ((2.7, 1), ("3",), (2, 1.0), (None,)), ids=repr)
    def test_rejects_non_integral_parts(self, parts):
        with pytest.raises(TypeError, match="parts must be integers"):
            Partition(parts)

    def test_weight_and_repr(self):
        lam = Partition((5, 3, 2))
        assert lam.weight == 10
        assert repr(lam) == "Partition(5, 3, 2)"
        assert Partition().weight == 0


# (partition, weight, length, alternating sum, odd parts, imbalance)
STATS_TABLE = [
    ((), 0, 0, 0, 0, 0),
    ((1,), 1, 1, 1, 1, 1),
    ((2,), 2, 1, 2, 0, 0),
    ((2, 1), 3, 2, 1, 1, -1),
    ((3, 2), 5, 2, 1, 1, 1),
    ((5, 4, 2), 11, 3, 3, 1, 1),
    ((11, 8, 7, 4), 30, 4, 6, 2, 2),
    ((3, 3, 2, 1), 9, 4, 1, 3, -1),
    ((7, 5, 5, 3), 20, 4, 4, 4, 0),
]


@pytest.mark.parametrize("parts,w,n,alt,odd,bg", STATS_TABLE)
def test_stats_frozen_values(parts, w, n, alt, odd, bg):
    st_ = stats(Partition(parts))
    assert (st_.weight, st_.length, st_.alt_sum, st_.odd_parts, st_.bg_rank) == (
        w,
        n,
        alt,
        odd,
        bg,
    )


# Ceilings of halved odd-indexed parts -> a, floors -> b; even-indexed -> c, d.
OMEGA_TABLE = [
    ((), (0, 0, 0, 0)),
    ((1,), (1, 0, 0, 0)),
    ((2,), (1, 1, 0, 0)),
    ((2, 1), (1, 1, 1, 0)),
    ((3, 2), (2, 1, 1, 1)),
    ((5, 4, 2), (4, 3, 2, 2)),
    ((11, 8, 7, 4), (10, 8, 6, 6)),
    ((4, 4, 3, 1), (4, 3, 3, 2)),
]


@pytest.mark.parametrize("parts,vector", OMEGA_TABLE)
def test_omega_exponents_frozen_values(parts, vector):
    assert omega_exponents(Partition(parts)).vector() == vector


@given(partitions())
def test_omega_invariants(lam):
    om = omega_exponents(lam)
    st_ = stats(lam)
    assert om.total == st_.weight
    assert (om.a - om.b) + (om.c - om.d) == st_.odd_parts
    assert (om.a + om.b) - (om.c + om.d) == st_.alt_sum
    assert om.a - om.b + om.d - om.c == st_.bg_rank
    assert min(om.vector()) >= 0


@given(partitions())
def test_conjugate_involution_and_statistics(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam).weight == lam.weight
    # Transposing swaps the roles of the two marked statistics.
    assert stats(conjugate(lam)).odd_parts == stats(lam).alt_sum
    assert stats(conjugate(lam)).alt_sum == stats(lam).odd_parts


def test_conjugate_example():
    assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
    assert conjugate(Partition()) == Partition()


@given(partitions())
def test_conjugate_counts_the_rows_longer_than_each_column(lam):
    """The linear-time transpose equals the definition: column j holds one
    cell per row longer than j.  Like every generator's output, it is a
    ``Partition`` that passes the constructor's checks."""
    got = conjugate(lam)
    assert type(got) is Partition
    assert got == Partition(tuple(sum(1 for p in lam if p > j) for j in range(max(lam, default=0))))


def test_generated_partitions_are_valid_partitions():
    """The generators build partitions without the constructor's checks;
    each one built passes them."""
    built = [
        lam for w in range(13) for cls in PartitionClass for lam in enumerate_partitions(cls, w)
    ]
    built += [lam for tag in PartitionClass if tag.is_basis for n in range(6)
              for lam in basis_members_of_length(tag, n, 24)]
    assert built
    for lam in built:
        assert type(lam) is Partition
        assert Partition(lam) == lam


CLASS_COUNTS = [
    # weight: all, strict, g1, g2, p1, p2
    (0, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 0, 1, 0),
    (2, 2, 1, 1, 1, 1, 1),
    (3, 3, 2, 1, 1, 1, 1),
    (4, 5, 2, 1, 1, 2, 2),
    (5, 7, 3, 2, 1, 3, 1),
    (6, 11, 4, 3, 2, 4, 3),
    (7, 15, 5, 3, 2, 4, 3),
    (8, 22, 6, 3, 2, 6, 5),
]


@pytest.mark.parametrize("w,n_all,n_strict,g1,g2,p1,p2", CLASS_COUNTS)
def test_class_counts(w, n_all, n_strict, g1, g2, p1, p2):
    def count(cls):
        return len(enumerate_partitions(cls, w))

    assert count(PartitionClass.ALL) == n_all
    assert count(PartitionClass.STRICT) == n_strict
    assert count(PartitionClass.G1) == g1
    assert count(PartitionClass.G2) == g2
    assert count(PartitionClass.P1) == p1
    assert count(PartitionClass.P2) == p2


def test_enumerate_g1_weight_5():
    assert enumerate_partitions(PartitionClass.G1, 5) == [
        Partition((5,)),
        Partition((3, 2)),
    ]


def test_enumerate_is_sorted_and_member_checked():
    for cls in PartitionClass:
        members = enumerate_partitions(cls, 7)
        assert members == sorted(members, reverse=True)
        assert all(is_member(cls, lam) for lam in members)


@given(partitions(max_weight=20))
def test_membership_definitions(lam):
    strict = all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))
    even_even = all(p % 2 == 0 for i, p in enumerate(lam) if (i + 1) % 2 == 0)
    odd_even = all(p % 2 == 0 for i, p in enumerate(lam) if (i + 1) % 2 == 1)
    assert is_member(PartitionClass.ALL, lam)
    assert is_member(PartitionClass.STRICT, lam) == strict
    assert is_member(PartitionClass.G1, lam) == (strict and even_even)
    assert is_member(PartitionClass.G2, lam) == (strict and odd_even)
    assert is_member(PartitionClass.P1, lam) == even_even
    assert is_member(PartitionClass.P2, lam) == odd_even


def test_basis_membership_examples():
    assert is_member(PartitionClass.BASIS_G1, Partition((5, 4, 2)))
    assert is_member(PartitionClass.BASIS_G1, Partition((5, 4, 3, 2)))
    # Gap of 3 breaks the basis condition even though the class accepts it.
    assert not is_member(PartitionClass.BASIS_G1, Partition((5, 2)))
    # Smallest part must be 1 or 2.
    assert not is_member(PartitionClass.BASIS_G1, Partition((4, 3)))
    assert is_member(PartitionClass.BASIS_P1, Partition((2, 2)))
    assert is_member(PartitionClass.BASIS_P2, Partition((2, 1)))
    assert not is_member(PartitionClass.BASIS_P1, Partition((2, 1)))


def test_class_tag_properties():
    assert PartitionClass.G1.basis is PartitionClass.BASIS_G1
    assert PartitionClass.BASIS_G1.base_class is PartitionClass.G1
    assert PartitionClass.BASIS_G1.is_basis
    assert not PartitionClass.G1.is_basis
    assert PartitionClass.G1.gaps == (1, 2)
    assert PartitionClass.P2.gaps == (0, 1)
    for tag in (PartitionClass.ALL, PartitionClass.STRICT, PartitionClass.BASIS_P1):
        with pytest.raises(ValueError, match="has no associated basis"):
            tag.basis


def test_rule_records():
    """A class has a basis exactly when its rule has a parity row; a basis tag
    obeys its base class's rule; the gaps follow the strict flag; a skeleton
    ends on 1 or 2, the one of its member's last-part parity."""
    with_basis = {tag.base_class for tag in PartitionClass if tag.is_basis}
    for cls in PartitionClass:
        rule = cls.rule
        assert rule == cls.base_class.rule
        assert cls.gaps == ((1, 2) if rule.strict else (0, 1))
        if not cls.is_basis:
            assert (cls in with_basis) == (rule.even_row is not None)
            assert cls.base_class is cls
        assert rule.last_parts == (1, 2)
        assert [rule.last_part(p) for p in (1, 2, 7, 8)] == [1, 2, 1, 2]
    assert not PartitionClass.P2.rule.allows(1, 3)
    assert PartitionClass.P2.rule.allows(2, 3)
    assert PartitionClass.STRICT.rule.allows(1, 3)


def test_basis_by_shape_matches_filter():
    """The length-indexed lists, and the grid summed by length and top part,
    must agree with brute-force filtering."""
    for tag in (
        PartitionClass.BASIS_G1,
        PartitionClass.BASIS_G2,
        PartitionClass.BASIS_P1,
        PartitionClass.BASIS_P2,
    ):
        grid = basis_weight_grid(tag, 4, 9)
        for n in range(0, 5):
            by_length = list(basis_members_of_length(tag, n, 2 * n * n))
            brute = [
                lam
                for w in range(0, 2 * n * n + 1)
                for lam in enumerate_partitions(tag, w)
                if len(lam) == n
            ]
            assert sorted(by_length) == sorted(brute)
            for h in range(0, 2 * n + 2):
                shaped = [lam for lam in by_length if (lam[0] if lam else 0) == h]
                expected = Series.from_terms(
                    FOUR_PARAM, ((omega_exponents(lam).vector(), 1) for lam in shaped), None
                )
                assert grid[n][h] == expected, (n, h)


def test_basis_largest_part_bound():
    for tag in (PartitionClass.BASIS_G1, PartitionClass.BASIS_P2):
        for n in range(6):
            assert all(
                (not lam) or lam[0] <= 2 * len(lam)
                for lam in basis_members_of_length(tag, n, 2 * n * n)
            )


def test_enumerate_rejects_negative_weight():
    with pytest.raises(ValueError):
        enumerate_partitions(PartitionClass.ALL, -1)
