"""The sparse truncated-series ring: arithmetic, precision, substitution.

The hypothesis strategies build small random series in the four-variable
ring (total-degree grading) and in the three-variable ring whose first two
variables carry weight zero, since those two gradings exercise different
paths in the truncation logic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from sipq.series import (
    FOUR_PARAM,
    SINGLE_Q,
    XZQ,
    NegativeQDegree,
    NonPositiveTail,
    NotAUnit,
    PrecisionLoss,
    RingMismatch,
    Series,
    SeriesRing,
    SubstitutionMap,
    TruncationMismatch,
)

coeffs = st.integers(min_value=-9, max_value=9)


def four_param_series(max_trunc: int = 12) -> st.SearchStrategy[Series]:
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * 4)
    terms = st.dictionaries(exps, coeffs, max_size=8)
    trunc = st.integers(min_value=0, max_value=max_trunc)
    return st.builds(lambda t, n: Series(FOUR_PARAM, t, n), terms, trunc)


def exact_polys() -> st.SearchStrategy[Series]:
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)
    terms = st.dictionaries(exps, coeffs, max_size=6)
    return st.builds(lambda t: Series(FOUR_PARAM, t, None), terms)


class TestConstruction:
    def test_zero_terms_dropped(self):
        s = Series(FOUR_PARAM, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 3}, None)
        assert s.terms == {(0, 1, 0, 0): 3}

    def test_overflow_terms_dropped_and_marked(self):
        s = Series(FOUR_PARAM, {(5, 0, 0, 0): 1, (1, 0, 0, 0): 2}, 3)
        assert s.terms == {(1, 0, 0, 0): 2}
        assert not s.complete

    def test_min_deg_of_stored_terms(self):
        s = Series(FOUR_PARAM, {(2, 1, 0, 0): 1, (1, 0, 0, 0): 1}, 10)
        assert s.min_deg == 1

    def test_min_deg_empty_incomplete(self):
        s = Series(FOUR_PARAM, {(11, 0, 0, 0): 1}, 10)
        assert s.is_zero() and s.min_deg == 11

    def test_min_deg_empty_exact(self):
        assert Series.zero(FOUR_PARAM).min_deg == 0

    def test_exact_series_must_be_complete(self):
        with pytest.raises(ValueError):
            Series(FOUR_PARAM, {}, None, complete=False)

    def test_ring_weights(self):
        assert XZQ.degree((5, -3, 2)) == 2
        assert FOUR_PARAM.degree((1, 1, 1, 1)) == 4
        with pytest.raises(ValueError):
            SeriesRing(("a", "b"), (1,))


@given(four_param_series(), four_param_series())
def test_addition_commutes(f, g):
    if f.trunc != g.trunc:
        f = f.truncate(min(f.trunc, g.trunc))
        g = g.truncate(min(f.trunc, g.trunc))
    assert (f + g).terms == (g + f).terms


@given(four_param_series())
def test_additive_inverse(f):
    assert (f - f).is_zero()
    assert (-(-f)).terms == f.terms


@settings(max_examples=60)
@given(exact_polys(), exact_polys(), exact_polys())
def test_multiplication_associates_and_distributes(f, g, h):
    assert ((f * g) * h).terms == (f * (g * h)).terms
    assert (f * (g + h)).terms == (f * g + f * h).terms


@given(exact_polys(), exact_polys())
def test_multiplication_commutes(f, g):
    assert (f * g).terms == (g * f).terms


@given(exact_polys())
def test_one_is_neutral(f):
    assert (f * Series.one(FOUR_PARAM)).terms == f.terms


@settings(max_examples=40)
@given(exact_polys(), st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_multiplication(f, n):
    expected = Series.one(FOUR_PARAM)
    for _ in range(n):
        expected = expected * f
    assert (f ** n).terms == expected.terms


@settings(max_examples=60)
@given(exact_polys(), exact_polys(), st.integers(min_value=0, max_value=8))
def test_truncation_is_a_ring_map(f, g, n):
    """Truncating then multiplying equals multiplying then truncating."""
    lhs = f.truncate(n) * g.truncate(n)
    rhs = (f * g).truncate(n)
    assert lhs.terms == rhs.terms


class TestTruncationFlag:
    def test_combining_distinct_truncations_fails(self):
        f = Series.one(FOUR_PARAM, 4)
        g = Series.one(FOUR_PARAM, 5)
        with pytest.raises(TruncationMismatch):
            f + g

    def test_exact_adapts_to_truncated(self):
        f = Series.one(FOUR_PARAM)
        g = Series.monomial(FOUR_PARAM, 1, (1, 0, 0, 0), 5)
        assert (f + g).trunc == 5

    def test_raising_truncation_needs_complete(self):
        f = Series(FOUR_PARAM, {(5, 0, 0, 0): 1}, 3)  # dropped a term
        with pytest.raises(PrecisionLoss):
            f.truncate(4)

    def test_raising_truncation_of_complete_is_fine(self):
        f = Series(FOUR_PARAM, {(1, 0, 0, 0): 1}, 3)
        assert f.truncate(7).trunc == 7
        assert f.truncate(None).trunc is None

    def test_degree_slice_beyond_trunc(self):
        f = Series.one(FOUR_PARAM, 3)
        with pytest.raises(PrecisionLoss):
            f.degree_slice(4)

    def test_incomplete_times_negative_degree(self):
        trunc_series = (Series.one(FOUR_PARAM) - Series.monomial(FOUR_PARAM, 1, (1, 1, 1, 1))).invert_unit(8)
        laurent = Series.monomial(FOUR_PARAM, 1, (-1, 0, 0, 0))
        with pytest.raises(PrecisionLoss):
            trunc_series * laurent


class TestRingMismatch:
    def test_add(self):
        with pytest.raises(RingMismatch):
            Series.one(FOUR_PARAM) + Series.one(XZQ)

    def test_mul(self):
        with pytest.raises(RingMismatch):
            Series.one(FOUR_PARAM) * Series.one(SINGLE_Q)


class TestInvertUnit:
    def test_geometric_series(self):
        f = Series.one(SINGLE_Q) - Series.monomial(SINGLE_Q, 1, (1,))
        inv = f.invert_unit(6)
        assert inv.terms == {(i,): 1 for i in range(7)}

    def test_constant_minus_one(self):
        f = Series.monomial(SINGLE_Q, -1, (0,)) + Series.monomial(SINGLE_Q, 1, (1,))
        inv = f.invert_unit(4)
        assert inv.terms == {(i,): -1 for i in range(5)}

    @settings(max_examples=40)
    @given(exact_polys(), st.integers(min_value=0, max_value=10), st.sampled_from([1, -1]))
    def test_round_trip(self, f, n, unit):
        tail = Series(FOUR_PARAM, {e: c for e, c in f.terms.items() if sum(e) > 0}, None)
        g = Series.monomial(FOUR_PARAM, unit, (0, 0, 0, 0)) + tail
        assert (g * g.invert_unit(n)).truncate(n).terms == Series.one(FOUR_PARAM, n).terms

    def test_non_unit_constant(self):
        f = Series.monomial(FOUR_PARAM, 2, (0, 0, 0, 0))
        with pytest.raises(NotAUnit):
            f.invert_unit(4)

    def test_zero_constant(self):
        with pytest.raises(NotAUnit):
            Series.monomial(FOUR_PARAM, 1, (1, 0, 0, 0)).invert_unit(4)

    def test_laurent_tail_rejected(self):
        f = Series.one(FOUR_PARAM) + Series.monomial(FOUR_PARAM, 1, (-1, 0, 0, 0))
        with pytest.raises(NonPositiveTail):
            f.invert_unit(4)

    def test_pure_monomial_is_not_a_unit(self):
        # Monomial inverses are spelled directly with negative exponents.
        f = Series.monomial(FOUR_PARAM, -1, (2, 0, 0, 0))
        with pytest.raises(NotAUnit):
            f.invert_unit(None)

    def test_exact_constant_inverse(self):
        f = Series.monomial(FOUR_PARAM, -1, (0, 0, 0, 0))
        inv = f.invert_unit(None)
        assert inv.terms == {(0, 0, 0, 0): -1}
        assert inv.trunc is None

    def test_exact_inverse_with_tail_needs_truncation(self):
        f = Series.one(FOUR_PARAM) - Series.monomial(FOUR_PARAM, 1, (1, 0, 0, 0))
        with pytest.raises(PrecisionLoss):
            f.invert_unit(None)


def positive_degree_monomials() -> st.SearchStrategy[tuple[SeriesRing, tuple[int, ...]]]:
    """A ring and an exponent tuple of positive degree in it.  In ``XZQ`` the
    weight-0 exponents of x and z range over negative values too."""
    four = st.tuples(*[st.integers(min_value=-2, max_value=3)] * 4).filter(
        lambda e: sum(e) > 0
    )
    xzq = st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    return st.one_of(
        st.tuples(st.just(FOUR_PARAM), four), st.tuples(st.just(XZQ), xzq)
    )


class TestGeometric:
    @settings(max_examples=60)
    @given(
        positive_degree_monomials(),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_unit_inverse(self, ring_exps, sign, trunc):
        ring, exps = ring_exps
        direct = Series.geometric(ring, sign, exps, trunc)
        reference = (Series.one(ring) - Series.monomial(ring, sign, exps)).invert_unit(trunc)
        assert direct.terms == reference.terms
        assert (direct.trunc, direct.complete) == (reference.trunc, reference.complete)

    @pytest.mark.parametrize(
        "ring, exps",
        ((FOUR_PARAM, (0, 0, 0, 0)), (FOUR_PARAM, (1, -2, 0, 0)), (XZQ, (1, -1, 0))),
    )
    def test_non_positive_degree_rejected(self, ring, exps):
        with pytest.raises(NonPositiveTail):
            Series.geometric(ring, 1, exps, 6)

    def test_truncation_required(self):
        with pytest.raises(PrecisionLoss):
            Series.geometric(SINGLE_Q, 1, (1,), None)


class TestSubstitution:
    smap = SubstitutionMap(
        FOUR_PARAM, XZQ, ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1))
    )

    def test_monomial_image(self):
        f = Series.monomial(FOUR_PARAM, 3, (2, 1, 1, 0))
        out = f.substitute(self.smap, None)
        assert out.terms == {(2, 2, 4): 3}

    @settings(max_examples=40)
    @given(exact_polys(), exact_polys())
    def test_multiplicative(self, f, g):
        lhs = (f * g).substitute(self.smap, None)
        rhs = f.substitute(self.smap, None) * g.substitute(self.smap, None)
        assert lhs.terms == rhs.terms

    def test_truncated_source_keeps_guarantee(self):
        f = Series(FOUR_PARAM, {(1, 0, 0, 0): 1, (9, 0, 0, 0): 7}, 6)
        out = f.substitute(self.smap, 6)
        assert out.terms == {(1, 1, 1): 1}
        assert not out.complete

    def test_truncated_source_cannot_promise_more(self):
        f = Series(FOUR_PARAM, {(9, 0, 0, 0): 7, (1, 0, 0, 0): 1}, 6)
        with pytest.raises(PrecisionLoss):
            f.substitute(self.smap, 7)

    def test_degree_dropping_map_requires_complete_source(self):
        drop_z = SubstitutionMap(
            FOUR_PARAM, XZQ, ((0, 1, 0), (0, 1, 0), (0, -1, 0), (0, -1, 0))
        )
        # A complete source loses nothing under any map.
        f = Series(FOUR_PARAM, {(1, 0, 0, 0): 1}, 6)
        assert f.substitute(drop_z, 6).terms == {(0, 1, 0): 1}
        # An incomplete one cannot bound the image order when degrees drop.
        g = Series(FOUR_PARAM, {(1, 0, 0, 0): 1, (9, 0, 0, 0): 2}, 6)
        with pytest.raises(PrecisionLoss):
            g.substitute(drop_z, 6)

    def test_negative_q_exponent_rejected(self):
        to_q = SubstitutionMap(FOUR_PARAM, SINGLE_Q, ((1,), (1,), (1,), (-1,)))
        f = Series.monomial(FOUR_PARAM, 1, (0, 0, 0, 2))
        with pytest.raises(NegativeQDegree):
            f.substitute(to_q, None)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            SubstitutionMap(FOUR_PARAM, XZQ, ((1, 1, 1),))


class TestComparisonAndSerialization:
    def test_equal_to_respects_truncation(self):
        f = Series(FOUR_PARAM, {(1, 0, 0, 0): 1}, 4)
        g = Series(FOUR_PARAM, {(1, 0, 0, 0): 1, (5, 0, 0, 0): 9}, None)
        cmp = f.equal_to(g)
        assert cmp.equal

    def test_equal_to_reports_lowest_difference(self):
        f = Series(FOUR_PARAM, {(1, 0, 0, 0): 1, (2, 0, 0, 0): 5}, 8)
        g = Series(FOUR_PARAM, {(1, 0, 0, 0): 1, (2, 0, 0, 0): 7}, 8)
        cmp = f.equal_to(g)
        assert not cmp.equal
        assert cmp.exps == (2, 0, 0, 0)
        assert (cmp.left, cmp.right) == (5, 7)

    def test_to_records_sorted_by_degree_then_exponents(self):
        f = Series(FOUR_PARAM, {(0, 2, 0, 0): 2, (1, 0, 0, 0): 1, (0, 0, 0, 0): 5}, None)
        recs = f.to_records()
        assert [r["coeff"] for r in recs] == ["5", "1", "2"]
        assert recs[1] == {"ea": 1, "eb": 0, "ec": 0, "ed": 0, "coeff": "1"}

    def test_to_string(self):
        f = Series(FOUR_PARAM, {(1, 2, 0, -1): -3, (0, 0, 0, 0): 1}, None)
        assert f.to_string() == "1 - 3*a*b^2*d^-1"
        assert Series.zero(FOUR_PARAM).to_string() == "0"

    def test_structural_equality(self):
        f = Series(FOUR_PARAM, {(1, 0, 0, 0): 1}, 4)
        assert f == Series(FOUR_PARAM, {(1, 0, 0, 0): 1}, 4)
        assert f != Series(FOUR_PARAM, {(1, 0, 0, 0): 1}, 5)


@given(st.integers(min_value=0, max_value=8))
def test_shift_multiplies_by_monomial(n):
    f = Series(FOUR_PARAM, {(1, 1, 0, 0): 2, (0, 0, 1, 1): 3}, None)
    shifted = f * Series.monomial(FOUR_PARAM, 1, (n, 0, 0, 0))
    assert shifted.terms == {(1 + n, 1, 0, 0): 2, (n, 0, 1, 1): 3}
