"""Skeleton/padding decomposition and the generating functions built on it."""

from __future__ import annotations

import hashlib
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from sipq import sip
from sipq.identities import combinatorial_side, registry
from sipq.partitions import (
    OMEGA_IDENTITY,
    Partition,
    PartitionClass,
    RowRule,
    basis_weight_sums,
    class_weight_series,
    enumerate_partitions,
)
from sipq.series import FOUR_PARAM, SINGLE_Q, XZQ, PrecisionLoss, Series, SubstitutionMap
from sipq.sip import (
    LengthViolation,
    NonEvenMu,
    NotInClass,
    SipDecomposition,
    check_sip_gf_four_parameter,
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


def _first_degree(failures: tuple[str, ...], pattern: str) -> int:
    degrees = [int(m.group(1)) for line in failures for m in [re.search(pattern, line)] if m]
    assert degrees, failures
    return min(degrees)


def test_decomposable_classes_are_the_parity_classes_in_report_order():
    assert sip.DECOMPOSABLE == DECOMPOSABLE


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
        # The empty partition belongs to every class, so only the class is
        # there to refuse, and every entry point refuses it up front.
        ALL = PartitionClass.ALL
        for call in (
            lambda: decompose(ALL, Partition((2, 1))),
            lambda: decompose(ALL, Partition()),
            lambda: compose(ALL, Partition(), Partition()),
            lambda: verify_sip_property(ALL, 0),
            lambda: sip_gf_four_parameter(ALL, 0),
        ):
            with pytest.raises(ValueError):
                call()

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

    @pytest.mark.parametrize("cls", (G1, G2), ids=lambda c: c.value)
    def test_a_split_that_raises_fails_its_member(self, monkeypatch, cls):
        """Strict gaps {1, 3} leave some rows two skeleton parts of the right
        parity: ``decompose`` raises, and the report names each member it
        raised on and goes on with the rest."""
        monkeypatch.setattr(
            RowRule, "gaps", property(lambda rule: (1, 3) if rule.strict else (0, 1))
        )
        report = verify_sip_property(cls, 10)
        assert not report.passed
        assert report.checks == sum(len(enumerate_partitions(cls, w)) for w in range(11))
        raised = [line for line in report.failures if ": InternalError: " in line]
        assert raised
        for line in raised:
            member, _, message = line.partition(": InternalError: ")
            assert message.endswith(f" of {member}")

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
    def test_row_recursion_in_q_counts_the_members(self, cls):
        """Read in ``q``, the row recursion's coefficients equal the members
        built one by one."""
        weights = class_weight_series(cls, 20, sip._OMEGA_TO_Q)
        assert [weights.degree_slice(w).get((w,), 0) for w in range(21)] == [
            len(enumerate_partitions(cls, w)) for w in range(21)
        ]

    @pytest.mark.parametrize(
        "fault",
        (
            # each count read one weight low, and the top weight one too many
            lambda weights: weights * Series.monomial(SINGLE_Q, 1, (1,)),
            lambda weights: weights + Series.monomial(SINGLE_Q, 1, (weights.trunc,)),
        ),
        ids=("shifted", "top-plus-one"),
    )
    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_off_by_one_counts_fail_by_degree_8(self, monkeypatch, cls, fault):
        real = sip.class_weight_series
        monkeypatch.setattr(sip, "class_weight_series", lambda *args: fault(real(*args)))
        report = sip_gf_single_variable(cls, 8)
        assert not report.passed
        assert _first_degree(report.failures, r"^degree (\d+):") <= 8

    def test_row_recursion_cut_short_is_refused(self, monkeypatch):
        """A row recursion one degree short cannot be read at the top degree:
        the report fails on the precision error instead of raising it."""
        real = sip.class_weight_series
        monkeypatch.setattr(
            sip, "class_weight_series", lambda cls, trunc, m: real(cls, trunc - 1, m)
        )
        report = sip_gf_single_variable(G1, 8)
        assert not report.passed
        assert report.failures == ("PrecisionLoss: degree 8 exceeds truncation 7",)
        assert report.checks == 8  # degrees 0..7; reading degree 8 raised

    def test_report_stopped_by_an_error_counts_only_the_checks_that_ran(self, monkeypatch):
        """A row recursion that raises before any degree is compared leaves
        the report with no check: it claims only the bounds it ran."""

        def fault(*args):
            raise PrecisionLoss("injected")

        monkeypatch.setattr(sip, "class_weight_series", fault)
        report = check_sip_gf_four_parameter(G1, 8)
        assert report.name == "sip-gf-four[g1]"
        assert (report.passed, report.checks) == (False, 0)
        assert report.failures == ("PrecisionLoss: injected",)


class TestBasisWeightSums:
    def test_g1_lengths(self):
        sums = basis_weight_sums(PartitionClass.BASIS_G1, 8)[:3]
        assert sums[0].terms == {(0, 0, 0, 0): 1}
        # length 1: (1) -> a and (2) -> ab
        assert sums[1].terms == {(1, 0, 0, 0): 1, (1, 1, 0, 0): 1}
        assert all(c >= 0 for c in sums[2].terms.values())
        assert min(sum(e) for e in sums[2].terms) >= 2
        assert all(s.trunc is None for s in sums)

    def test_non_basis_tag_rejected(self):
        with pytest.raises(ValueError):
            basis_weight_sums(G1, 8)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="weight_max must be nonnegative"):
            basis_weight_sums(PartitionClass.BASIS_G1, -1)


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
    def test_builds_no_partition(self, partitions_built, cls):
        """Every ``B_m`` comes from the bottom-up sum, not from listed
        skeletons; the check still sees every member."""
        assert check_sip_gf_four_parameter(cls, 24).passed
        assert sip_gf_single_variable(cls, 24).passed
        assert partitions_built == [0]

    @pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
    def test_matches_enumeration(self, cls):
        report = check_sip_gf_four_parameter(cls, 12)
        assert report.passed, report.failures
        assert report.name == f"sip-gf-four[{cls.value}]"

    @pytest.mark.parametrize(
        "spec",
        [spec for spec in registry() if spec.partition_class in DECOMPOSABLE],
        ids=lambda spec: spec.key,
    )
    def test_mapped_assembly_matches_the_combinatorial_side(self, spec):
        """Through each catalog weight map, the skeleton assembly equals the row
        recursion over class members: same terms and truncation."""
        assert sip_gf_four_parameter(spec.partition_class, 32, spec.weight_map) == (
            combinatorial_side(spec, 32)
        )

    @pytest.mark.parametrize(
        "weight_map",
        (
            SubstitutionMap(XZQ, SINGLE_Q, ((0,), (0,), (1,))),
            SubstitutionMap(FOUR_PARAM, XZQ, ((1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0))),
        ),
        ids=("from-xzq", "degree-0-image"),
    )
    def test_refuses_the_maps_the_row_recursion_refuses(self, weight_map):
        with pytest.raises(ValueError) as refused:
            class_weight_series(G1, 8, weight_map)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            sip_gf_four_parameter(G1, 8, weight_map)

    @pytest.mark.parametrize(
        "cls, digest",
        (
            (G1, "8a0b74389e23fc07d1c2f07a9b02e5acf148db4c2c706027572c95b5cb4eb190"),
            (G2, "762311e723eeedc1fc163eaccd0a26b835a85eb6ee9d605187de866223aa243f"),
            (P1, "6ddbc5b2a2247c0f56d66c215d0817d29e5bba8f12a833396caf51d079435957"),
            (P2, "9928584aeaef574e9fdaa8d00985a5dfd214009abdbdc37ffef6cb386f715e28"),
        ),
        ids=lambda c: getattr(c, "value", "digest"),
    )
    def test_assembly_is_pinned_at_trunc_40(self, cls, digest):
        """The battery compares the assembly with the row recursion only; its
        own terms are held to the recorded output."""
        records = json.dumps(sip_gf_four_parameter(cls, 40).to_records())
        assert hashlib.sha256(records.encode()).hexdigest() == digest


def _odd_length_by_q(monkeypatch):
    # d_m for odd m = 2k + 1 becomes 1 - Q^(k+1), the next even length's divisor.
    real = sip._divisor
    monkeypatch.setattr(sip, "_divisor", lambda m: real(m + m % 2))


def _b0_dropped(monkeypatch):
    real = sip.basis_weight_sums

    def without_b0(cls, weight_max, weight_map=OMEGA_IDENTITY):
        return [Series.zero(weight_map.target)] + real(cls, weight_max, weight_map)[1:]

    monkeypatch.setattr(sip, "basis_weight_sums", without_b0)


def _first_division_late(monkeypatch):
    # d_1 = 1 - ab becomes the next factor of its run, 1 - abQ.
    real = sip._divisor
    monkeypatch.setattr(sip, "_divisor", lambda m: real(3) if m == 1 else real(m))


@pytest.mark.parametrize(
    "fault",
    (_odd_length_by_q, _b0_dropped, _first_division_late),
    ids=("odd-length-by-q", "b0-dropped", "first-division-late"),
)
@pytest.mark.parametrize("cls", DECOMPOSABLE, ids=lambda c: c.value)
def test_faulty_assembly_fails_both_checks_by_degree_8(monkeypatch, cls, fault):
    """One assembly serves both reports, so a fault in it fails both."""
    fault(monkeypatch)
    single = sip_gf_single_variable(cls, 8)
    assert not single.passed
    assert _first_degree(single.failures, r"^degree (\d+):") <= 8
    four = check_sip_gf_four_parameter(cls, 8)
    assert not four.passed
    assert _first_degree(four.failures, r"^degree (\d+):") <= 8
