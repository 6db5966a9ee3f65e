"""Skeleton/padding decomposition and the generating functions built on it."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from sipq import sip
from sipq.partitions import Partition, PartitionClass, enumerate_partitions
from sipq.sip import (
    LengthViolation,
    NonEvenMu,
    NotInClass,
    SipDecomposition,
    basis_weight_poly,
    check_sip_gf_four_parameter,
    class_counts,
    compose,
    decompose,
    sip_gf_four_parameter,
    sip_gf_single_variable,
    verify_sip_property,
)

G1 = PartitionClass.G1
G2 = PartitionClass.G2
P1 = PartitionClass.P1
P2 = PartitionClass.P2
DECOMPOSABLE = (G1, G2, P1, P2)


class TestDecompose:
    def test_worked_example(self):
        d = decompose(G1, Partition((11, 8, 7, 4)))
        assert d.beta == Partition((5, 4, 3, 2))
        assert d.mu == Partition((6, 4, 4, 2))
        assert d.modulus == 2

    def test_basis_member_is_fixed_point(self):
        d = decompose(G1, Partition((5, 4, 2)))
        assert d.beta == Partition((5, 4, 2))
        assert d.mu == Partition(())

    def test_smallest_padded_example(self):
        d = decompose(P1, Partition((2, 2)))
        assert (d.beta, d.mu) == (Partition((2, 2)), Partition(()))

    def test_empty_partition(self):
        d = decompose(G2, Partition(()))
        assert (d.beta, d.mu) == (Partition(()), Partition(()))

    def test_not_in_class(self):
        with pytest.raises(NotInClass):
            decompose(G1, Partition((3, 3)))  # not strict

    def test_class_without_basis(self):
        with pytest.raises(ValueError):
            decompose(PartitionClass.ALL, Partition((2, 1)))

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(DECOMPOSABLE),
        st.integers(min_value=0, max_value=14),
    )
    def test_round_trip_for_every_member(self, cls, weight):
        for lam in enumerate_partitions(cls, weight):
            d = decompose(cls, lam)
            assert compose(cls, d.beta, d.mu) == lam
            assert all(p % 2 == 0 for p in d.mu)


class TestCompose:
    def test_worked_example(self):
        assert compose(P2, Partition((2, 1)), Partition((4, 2))) == Partition((6, 3))

    def test_skeleton_must_be_in_basis(self):
        with pytest.raises(NotInClass):
            compose(G1, Partition((6, 4)), Partition((2,)))

    def test_padding_longer_than_skeleton(self):
        with pytest.raises(LengthViolation):
            compose(G1, Partition((2,)), Partition((2, 2)))

    def test_padding_must_be_even(self):
        with pytest.raises(NonEvenMu):
            compose(G1, Partition((3, 2)), Partition((3,)))

    def test_decomposition_record(self):
        d = SipDecomposition(Partition((2, 1)), Partition((2,)))
        assert d.modulus == 2


class TestSipProperty:
    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_unique_split(self, cls):
        report = verify_sip_property(cls, 12)
        assert report.passed, report.failures
        assert report.name == f"sip-property[{cls.value}]"
        assert report.checks == sum(
            len(enumerate_partitions(cls, w)) for w in range(13)
        )

    def test_wrong_basis_rejected(self):
        # The basis comes from the class; a basis tag has no split of its own.
        with pytest.raises(ValueError):
            verify_sip_property(PartitionClass.BASIS_G2, 6)

    @pytest.mark.parametrize("weight_max", (-1, -5))
    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_negative_bound_is_refused(self, cls, weight_max):
        with pytest.raises(ValueError):
            verify_sip_property(cls, weight_max)

    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_one_skeleton_list_per_length(self, monkeypatch, cls):
        real = sip.basis_members_of_length
        fetched = []

        def counted(basis, length, weight_max):
            fetched.append((basis, length))
            return real(basis, length, weight_max)

        monkeypatch.setattr(sip, "basis_members_of_length", counted)
        assert verify_sip_property(cls, 12).passed
        assert len(fetched) == len(set(fetched))
        assert {length for _, length in fetched} == {
            len(lam) for w in range(13) for lam in enumerate_partitions(cls, w)
        }

    @pytest.mark.parametrize(
        "fault, message",
        (
            (lambda real: lambda b, n, w: tuple(x for beta in real(b, n, w) for x in (beta, beta)),
             "2 valid splits"),
            (lambda real: lambda b, n, w: real(b, n, w - 1), "0 valid splits"),
        ),
        ids=("repeated", "cut-short"),
    )
    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_faulty_skeleton_list_fails_by_weight_8(self, monkeypatch, cls, fault, message):
        """Some bound up to 8 catches the fault, and with its own message: a
        cut list misses the members that are their own skeleton, which for g1
        and g2 weigh 7 or 6 but never 8."""
        monkeypatch.setattr(sip, "basis_members_of_length", fault(sip.basis_members_of_length))
        failures = [line for w in range(9) for line in verify_sip_property(cls, w).failures]
        assert failures
        assert all(message in line for line in failures), failures


class TestSingleVariableSeries:
    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_counts_match(self, cls):
        report = sip_gf_single_variable(cls, 16)
        assert report.passed, report.failures

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            sip_gf_single_variable(PartitionClass.BASIS_P2, 8)

    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_class_counts_match_enumeration(self, cls):
        """The counts read off the row recursion equal the members built one by one."""
        assert class_counts(cls, 20) == [len(enumerate_partitions(cls, w)) for w in range(21)]

    @pytest.mark.parametrize(
        "fault",
        (
            lambda counts: [0] + counts[:-1],  # each count read one weight low
            lambda counts: counts[:-1] + [counts[-1] + 1],  # the top weight one too many
        ),
        ids=("shifted", "top-plus-one"),
    )
    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_off_by_one_counts_fail_by_weight_8(self, monkeypatch, cls, fault):
        real = sip.class_counts
        monkeypatch.setattr(sip, "class_counts", lambda c, w: fault(real(c, w)))
        report = sip_gf_single_variable(cls, 8)
        assert not report.passed
        assert min(int(f.split(":")[0].split()[1]) for f in report.failures) <= 8

    def test_short_count_list_is_refused(self, monkeypatch):
        real = sip.class_counts
        monkeypatch.setattr(sip, "class_counts", lambda c, w: real(c, w)[:-1])
        with pytest.raises(IndexError):
            sip_gf_single_variable(G1, 8)


class TestBasisWeightPoly:
    def test_g1_lengths(self):
        assert basis_weight_poly(PartitionClass.BASIS_G1, 0, 0).terms == {(0, 0, 0, 0): 1}
        # length 1: (1) -> a and (2) -> ab
        assert basis_weight_poly(PartitionClass.BASIS_G1, 1, 2).terms == {
            (1, 0, 0, 0): 1,
            (1, 1, 0, 0): 1,
        }
        poly = basis_weight_poly(PartitionClass.BASIS_G1, 2, 8)
        assert all(c >= 0 for c in poly.terms.values())
        assert min(sum(e) for e in poly.terms) >= 2

    def test_non_basis_tag_rejected(self):
        with pytest.raises(ValueError):
            basis_weight_poly(G1, 2, 8)


class TestFourParameterSeries:
    def test_g2_constant_term(self):
        f = sip_gf_four_parameter(G2, 0)
        assert f.constant_term() == 1

    def test_g1_weight_five_slice(self):
        f = sip_gf_four_parameter(G1, 10)
        # weight-5 members of the strict/even-second-row class: (5) and (3,2)
        assert f.degree_slice(5) == {(3, 2, 0, 0): 1, (2, 1, 1, 1): 1}

    def test_p2_weight_three_slice(self):
        f = sip_gf_four_parameter(P2, 10)
        # only (2,1) has weight 3 in this class
        assert f.degree_slice(3) == {(1, 1, 1, 0): 1}

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            sip_gf_four_parameter(G1, -1)

    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_matches_enumeration(self, cls):
        report = check_sip_gf_four_parameter(cls, 12)
        assert report.passed, report.failures
        assert report.name == f"sip-gf-four[{cls.value}]"
