"""The sparse truncated-series ring: arithmetic, precision, substitution.

The hypothesis strategies build small random series in the four-variable
ring (total-degree grading) and in the three-variable ring whose first two
variables carry weight zero, since those two gradings exercise different
paths in the truncation logic.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from sipq import series
from sipq.identities import product_side, spec_by_key, verify_spec
from sipq.partitions import PartitionClass, class_weight_series
from sipq.qseries import A_INFINITY, check_q_gauss, check_qbinomial_recurrences
from sipq.sip import check_sip_gf_four_parameter
from sipq.series import (
    EXPONENT_LIMIT,
    FOUR_PARAM,
    SINGLE_Q,
    XZQ,
    ExponentOverflow,
    NonPositiveTail,
    NotAUnit,
    PrecisionLoss,
    RingMismatch,
    Series,
    SeriesError,
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
        assert s.trunc == 3

    def test_min_deg_of_stored_terms(self):
        s = Series(FOUR_PARAM, {(2, 1, 0, 0): 1, (1, 0, 0, 0): 1}, 10)
        assert s.min_deg == 1

    def test_min_deg_empty_incomplete(self):
        s = Series(FOUR_PARAM, {(11, 0, 0, 0): 1}, 10)
        assert s.is_zero() and s.min_deg == 11

    def test_min_deg_empty_exact(self):
        assert Series.zero(FOUR_PARAM).min_deg == 0

    def test_ring_weights(self):
        assert XZQ.degree((5, -3, 2)) == 2
        assert FOUR_PARAM.degree((1, 1, 1, 1)) == 4
        with pytest.raises(ValueError):
            SeriesRing(("a", "b"), (1,))

    @pytest.mark.parametrize("exps", ((1, 1), (1, 1, 1, 1, 7)), ids=("short", "long"))
    def test_degree_of_the_wrong_arity_rejected(self, exps):
        """A tuple with too few or too many exponents is refused, not cut
        or padded to the ring's variables."""
        with pytest.raises(ValueError, match=r"exponent tuple .* has wrong arity for \('a', "):
            FOUR_PARAM.degree(exps)


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


@given(exact_polys())
def test_one_is_neutral(f):
    assert (f * Series.one(FOUR_PARAM)).terms == f.terms


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

    def test_degree_slice_beyond_trunc(self):
        f = Series.one(FOUR_PARAM, 3)
        with pytest.raises(PrecisionLoss):
            f.degree_slice(4)

    def test_single_coefficient_beyond_trunc(self):
        # The product side to order 3 stores no a^4, but its degree-4 slice is
        # unknown, not empty.
        product = product_side(spec_by_key("g1-four"), 3)
        assert product.degree_slice(3)
        with pytest.raises(PrecisionLoss):
            product.degree_slice(4)
        assert Series.one(FOUR_PARAM, 0).constant_term() == 1
        with pytest.raises(PrecisionLoss):
            Series.one(FOUR_PARAM, -1).constant_term()

    def test_incomplete_times_negative_degree(self):
        trunc_series = (Series.one(FOUR_PARAM) - Series.monomial(FOUR_PARAM, 1, (1, 1, 1, 1))).invert_unit(8)
        laurent = Series.monomial(FOUR_PARAM, 1, (-1, 0, 0, 0))
        with pytest.raises(PrecisionLoss):
            trunc_series * laurent


_A = Series.monomial(FOUR_PARAM, 1, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "unknown",
    (
        lambda: Series.one(FOUR_PARAM, 4).truncate(6),
        lambda: Series.one(FOUR_PARAM, 4) * Series.monomial(FOUR_PARAM, 1, (-1, 0, 0, 0)),
        lambda: (Series.one(FOUR_PARAM) - _A).truncate(4).invert_unit(6),
        lambda: Series.one(FOUR_PARAM, 4).times_run((("times", 1, (-1, 0, 0, 0)),)),
    ),
    ids=("raised-truncation", "negative-degree-product", "deeper-inverse", "negative-degree-step"),
)
def test_truncated_series_with_no_stored_term_above_still_refuses(unknown):
    """A truncated series whose stored terms all lie below its truncation
    still has unknown coefficients above it."""
    with pytest.raises(PrecisionLoss):
        unknown()


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
        direct = Series.one(ring, trunc).times_factor(sign, exps, inverted=True)
        reference = (Series.one(ring) - Series.monomial(ring, sign, exps)).invert_unit(trunc)
        assert direct.terms == reference.terms
        assert direct.trunc == reference.trunc

    @pytest.mark.parametrize(
        "ring, exps",
        ((FOUR_PARAM, (0, 0, 0, 0)), (FOUR_PARAM, (1, -2, 0, 0)), (XZQ, (1, -1, 0))),
    )
    def test_non_positive_degree_rejected(self, ring, exps):
        with pytest.raises(NonPositiveTail):
            Series.one(ring, 6).times_factor(1, exps, inverted=True)

    def test_truncation_required(self):
        with pytest.raises(PrecisionLoss):
            Series.one(SINGLE_Q).times_factor(1, (1,), inverted=True)


class TestSubstitution:
    smap = SubstitutionMap(
        FOUR_PARAM, XZQ, ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1))
    )

    def test_monomial_image(self):
        assert self.smap.map_exps((2, 1, 1, 0)) == (2, 2, 4)

    @pytest.mark.parametrize("exps", ((1, 1, 1), (1, 1, 1, 1, 9)), ids=("short", "long"))
    def test_exponents_of_the_wrong_arity_rejected(self, exps):
        """A source tuple with too few or too many exponents is refused, not
        cut or padded to the source ring's variables."""
        with pytest.raises(ValueError, match=r"exponent tuple .* has wrong arity for \('a', "):
            self.smap.map_exps(exps)

    @given(st.lists(st.tuples(*[st.integers(min_value=0, max_value=9)] * 4), max_size=6))
    def test_multiplicative(self, monomials):
        # The image of a product of monomials is the product of their images,
        # which is what lets the class weight series map each part on its own.
        total = tuple(map(sum, zip((0, 0, 0, 0), *monomials)))
        images = [self.smap.map_exps(m) for m in monomials]
        assert self.smap.map_exps(total) == tuple(map(sum, zip((0, 0, 0), *images)))

    def test_degree_dropping_map_is_refused(self):
        drop_z = SubstitutionMap(
            FOUR_PARAM, XZQ, ((0, 1, 0), (0, 1, 0), (0, -1, 0), (0, -1, 0))
        )
        with pytest.raises(ValueError, match="degree 1"):
            class_weight_series(PartitionClass.ALL, 6, drop_z)

    def test_negative_q_exponent_rejected(self):
        to_q = SubstitutionMap(FOUR_PARAM, SINGLE_Q, ((1,), (1,), (1,), (-1,)))
        with pytest.raises(ValueError, match="degree 1"):
            class_weight_series(PartitionClass.ALL, 6, to_q)

    def test_map_from_another_ring_is_refused(self):
        from_xzq = SubstitutionMap(XZQ, SINGLE_Q, ((0,), (0,), (1,)))
        with pytest.raises(ValueError, match="source"):
            class_weight_series(PartitionClass.ALL, 6, from_xzq)

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


# -- the bucket kernel against a flat-dict reference ---------------------------
#
# The reference below multiplies, adds and truncates flat ``exps -> coeff``
# dicts term by term, with its own degree function and truncation filter, and
# never looks at ``Series.buckets``.


def _deg(ring: SeriesRing, exps: tuple[int, ...]) -> int:
    return sum(w * e for w, e in zip(ring.weights, exps))


def _expected(ring, terms, trunc):
    """``(terms, trunc, min_deg)`` of a flat dict cut at ``trunc``."""
    kept = {e: c for e, c in terms.items() if c and (trunc is None or _deg(ring, e) <= trunc)}
    if kept:
        low = min(_deg(ring, e) for e in kept)
    else:
        low = 0 if trunc is None else trunc + 1
    return kept, trunc, low


def _observed(s: Series):
    return s.terms, s.trunc, s.min_deg


def _naive_mul(f: Series, g: Series):
    trunc = f.trunc if g.trunc is None else g.trunc
    out: dict[tuple[int, ...], int] = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            key = tuple(a + b for a, b in zip(ef, eg))
            out[key] = out.get(key, 0) + cf * cg
    return _expected(f.ring, out, trunc)


def _naive_add(f: Series, g: Series):
    trunc = f.trunc if g.trunc is None else g.trunc
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = out.get(e, 0) + c
    return _expected(f.ring, out, trunc)


def assert_storage_invariant(s: Series) -> None:
    """Each term sits in its own degree's bucket, no bucket is empty, no
    coefficient is 0, nothing lies above the truncation, ``min_deg`` is the
    least stored degree, and ``bound`` covers every decoded exponent."""
    for deg, bucket in s.buckets.items():
        assert bucket, f"empty bucket at degree {deg}"
        assert all(c != 0 for c in bucket.values())
        decoded = [s.ring.unpack(k) for k in bucket]
        assert all(_deg(s.ring, e) == deg for e in decoded)
        assert all(abs(x) <= s.bound for e in decoded for x in e)
        assert s.trunc is None or deg <= s.trunc
    if s.buckets:
        assert s.min_deg == min(s.buckets)


def _ring_exps(ring: SeriesRing) -> st.SearchStrategy[tuple[int, ...]]:
    """Exponents with negative values on the weight-0 variables of ``XZQ``
    and on single variables of ``FOUR_PARAM``, so some terms have negative
    degree."""
    if ring is XZQ:
        return st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=0, max_value=5),
        )
    return st.tuples(*[st.integers(min_value=-1, max_value=4)] * 4)


def _edge_exps(ring: SeriesRing, edge: int) -> st.SearchStrategy[tuple[int, ...]]:
    """Exponents within ``edge`` of zero, mostly close to ``+edge`` or
    ``-edge``, mixed with small ones; in ``XZQ`` the weight-0 x and z take
    either sign, q only its own small or large positive values."""
    near = st.one_of(
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=edge - 2, max_value=edge),
        st.integers(min_value=-edge, max_value=-edge + 2),
    )
    if ring is XZQ:
        q = st.one_of(
            st.integers(min_value=0, max_value=5), st.integers(min_value=edge - 2, max_value=edge)
        )
        return st.tuples(near, near, q)
    return st.tuples(*[near] * 4)


@st.composite
def series_pairs(draw, similar: bool = False, edge: int | None = None):
    """Two series in one ring, each exact or truncated at one shared order;
    with ``similar`` the second differs from the first in a few terms only.
    With ``edge`` the exponents come from :func:`_edge_exps`."""
    ring = draw(st.sampled_from([FOUR_PARAM, XZQ]))
    trunc = draw(st.integers(min_value=0, max_value=10))
    exps = _ring_exps(ring) if edge is None else _edge_exps(ring, edge)
    terms = st.dictionaries(exps, coeffs, max_size=10)

    def one(body):
        if draw(st.booleans()):
            return Series(ring, body, None)
        return Series(ring, body, trunc)

    first = draw(terms)
    second = dict(first) if similar else draw(terms)
    if similar:
        second.update(draw(st.dictionaries(exps, coeffs, max_size=3)))
    return one(first), one(second)


@settings(max_examples=200)
@given(series_pairs())
def test_multiplication_commutes(pair):
    """``f * g`` and ``g * f`` agree on coefficients, ``bound`` and ``min_deg``,
    or raise the same error, whichever factor the product walks term by term."""
    f, g = pair
    try:
        fg = f * g
    except SeriesError as err:
        with pytest.raises(type(err)):
            g * f
        return
    gf = g * f
    assert fg == gf
    assert (fg.bound, fg.min_deg) == (gf.bound, gf.min_deg)


def check_mul(f: Series, g: Series) -> None:
    if (f.trunc is not None and g.min_deg < 0) or (g.trunc is not None and f.min_deg < 0):
        with pytest.raises(PrecisionLoss):
            f * g
        return
    product = f * g
    assert_storage_invariant(product)
    assert _observed(product) == _naive_mul(f, g)


def check_add(f: Series, g: Series) -> None:
    total = f + g
    assert_storage_invariant(total)
    assert _observed(total) == _naive_add(f, g)
    negated = -f
    assert_storage_invariant(negated)
    assert _observed(negated) == _expected(f.ring, {e: -c for e, c in f.terms.items()}, f.trunc)


def check_truncate(f: Series, n: int | None) -> None:
    assert_storage_invariant(f)
    if n is not None and (f.trunc is None or n <= f.trunc):
        expected = _expected(f.ring, f.terms, n)
    elif f.trunc == n:
        expected = _observed(f)
    else:
        with pytest.raises(PrecisionLoss):
            f.truncate(n)
        return
    cut = f.truncate(n)
    assert_storage_invariant(cut)
    assert _observed(cut) == expected


def check_equal_to(f: Series, g: Series) -> None:
    trunc = f.trunc if g.trunc is None else g.trunc
    lhs, rhs = f.terms, g.terms
    differ = [
        e
        for e in lhs.keys() | rhs.keys()
        if lhs.get(e, 0) != rhs.get(e, 0) and (trunc is None or _deg(f.ring, e) <= trunc)
    ]
    cmp = f.equal_to(g)
    if not differ:
        assert (cmp.equal, cmp.exps) == (True, None)
        return
    least = min(differ, key=lambda e: (_deg(f.ring, e), e))
    assert (cmp.equal, cmp.exps) == (False, least)
    assert (cmp.left, cmp.right) == (lhs.get(least, 0), rhs.get(least, 0))


class TestBucketKernel:
    @settings(max_examples=200)
    @given(series_pairs())
    def test_mul_matches_flat_convolution(self, pair):
        check_mul(*pair)

    @settings(max_examples=200)
    @given(series_pairs())
    def test_add_matches_flat_sum(self, pair):
        check_add(*pair)

    @settings(max_examples=200)
    @given(series_pairs(), st.one_of(st.none(), st.integers(min_value=-1, max_value=12)))
    def test_truncate_matches_flat_filter(self, pair, n):
        check_truncate(pair[0], n)

    @settings(max_examples=200)
    @given(series_pairs(similar=True))
    def test_equal_to_reports_least_difference(self, pair):
        check_equal_to(*pair)


# -- one-pass sums ----------------------------------------------------------------


@st.composite
def series_sums(draw):
    """Four series in one ring, each exact or truncated.  The truncated ones share one order, except in one draw in ten, where some
    carry another (a mismatch); an operand may negate the one before it up to
    a few terms, so exact terms above a later truncation can sum to zero."""
    ring = draw(st.sampled_from([FOUR_PARAM, XZQ]))
    trunc = draw(st.integers(min_value=0, max_value=10))
    terms = st.dictionaries(_ring_exps(ring), coeffs, max_size=8)
    mismatch = draw(st.integers(min_value=0, max_value=9)) == 0
    order = st.sampled_from([None, trunc, trunc + 1] if mismatch else [None, trunc])
    out: list[Series] = []
    body: dict[tuple[int, ...], int] = {}
    for _ in range(4):
        fresh = draw(terms)
        if out and draw(st.booleans()):
            fresh = {e: -c for e, c in body.items()}
            fresh.update(draw(st.dictionaries(_ring_exps(ring), coeffs, max_size=2)))
        body = fresh
        out.append(Series(ring, body, draw(order)))
    return out


def _snapshot(s: Series):
    return {deg: dict(bucket) for deg, bucket in s.buckets.items()}


def _naive_sum(operands: list[Series]):
    """``(terms, trunc, min_deg)`` of adding flat dicts left to right, each
    partial sum cut at its truncation."""
    first, *rest = operands
    terms, trunc = first.terms, first.trunc
    for g in rest:
        trunc = trunc if g.trunc is None else g.trunc
        out = dict(terms)
        for e, c in g.terms.items():
            out[e] = out.get(e, 0) + c
        terms, trunc, low = _expected(first.ring, out, trunc)
    return terms, trunc, low


_CUBE = Series.monomial(FOUR_PARAM, 1, (3, 0, 0, 0))


class TestPlus:
    @settings(max_examples=400)
    @given(series_sums())
    # An exact prefix whose term above the later truncation cancels, and one
    # whose term does not.
    @example([_CUBE, -_CUBE, Series.one(FOUR_PARAM, 2), Series.zero(FOUR_PARAM, 2)])
    @example([_CUBE, Series.one(FOUR_PARAM, 2), _CUBE, Series.zero(FOUR_PARAM)])
    def test_matches_repeated_add(self, operands):
        """``a.plus([b, c, d])`` is ``((a + b) + c) + d`` on coefficients,
        ``trunc`` and ``bound``, raises what that fold raises,
        and leaves every operand's buckets as they were.  ``+`` is ``plus`` of
        one operand, so the sum is also checked against a fold of flat dicts."""
        a, *rest = operands
        before = [_snapshot(s) for s in operands]
        try:
            folded = a
            for s in rest:
                folded = folded + s
        except TruncationMismatch as exc:
            with pytest.raises(TruncationMismatch, match=re.escape(str(exc))):
                a.plus(rest)
            return
        total = a.plus(rest)
        assert [_snapshot(s) for s in operands] == before
        assert_storage_invariant(total)
        assert total == folded
        assert (total.trunc, total.bound, total.min_deg) == (
            folded.trunc,
            folded.bound,
            folded.min_deg,
        )
        assert _observed(total) == _naive_sum(operands)
        assert total.bound == max(s.bound for s in operands)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            Series.one(FOUR_PARAM).plus([Series.one(FOUR_PARAM), Series.one(XZQ)])

    def test_empty_is_self(self):
        f = Series(XZQ, {(-2, 1, 0): 3, (1, 1, 2): -1}, 4)
        assert _observed(f.plus(())) == _observed(f)


# -- packed exponent keys -------------------------------------------------------

LIMIT = EXPONENT_LIMIT
#: Factors whose exponents stay within this sum to exponents below the limit.
HALF_EDGE = LIMIT // 2 - 1


class TestPackedKeys:
    @settings(max_examples=100)
    @given(series_pairs(edge=HALF_EDGE))
    def test_mul_near_limit_matches_flat_convolution(self, pair):
        check_mul(*pair)

    @settings(max_examples=100)
    @given(series_pairs(edge=LIMIT - 1))
    def test_add_near_limit_matches_flat_sum(self, pair):
        check_add(*pair)

    @settings(max_examples=100)
    @given(series_pairs(edge=LIMIT - 1), st.one_of(st.none(), st.integers(min_value=-1, max_value=12)))
    def test_truncate_near_limit_matches_flat_filter(self, pair, n):
        check_truncate(pair[0], n)

    @settings(max_examples=100)
    @given(series_pairs(similar=True, edge=LIMIT - 1))
    def test_equal_to_near_limit_reports_least_difference(self, pair):
        check_equal_to(*pair)

    @settings(max_examples=300)
    @given(
        st.sampled_from([FOUR_PARAM, XZQ]).flatmap(
            lambda r: st.tuples(st.just(r), _edge_exps(r, LIMIT - 1), _edge_exps(r, LIMIT - 1))
        )
    )
    def test_key_order_is_tuple_order(self, case):
        ring, a, b = case
        ka, kb = ring.pack(a), ring.pack(b)
        assert (ring.unpack(ka), ring.unpack(kb)) == (a, b)
        assert (ka < kb, ka == kb) == (a < b, a == b)
        assert ring.has_negative(ka) == any(e < 0 for e in a)
        total = tuple(x + y for x, y in zip(a, b))
        if all(abs(e) < LIMIT for e in total):
            assert ka + kb == ring.pack(total)

    @settings(max_examples=100)
    @given(series_pairs(edge=LIMIT - 1))
    def test_readers_decode_keys(self, pair):
        f, _ = pair
        terms = f.terms
        assert f.has_negative_exponent() == any(e < 0 for exps in terms for e in exps)
        for exps, coeff in terms.items():
            assert f.degree_slice(_deg(f.ring, exps))[exps] == coeff
        assert [r["coeff"] for r in f.to_records()] == [
            str(terms[e]) for e in sorted(terms, key=lambda e: (_deg(f.ring, e), e))
        ]

    @pytest.mark.parametrize(
        "ring, exps",
        (
            (FOUR_PARAM, (LIMIT, 0, 0, 0)),
            (FOUR_PARAM, (0, 0, 0, -LIMIT)),
            (XZQ, (-LIMIT, 0, 1)),
            (XZQ, (0, LIMIT, 0)),
        ),
    )
    def test_out_of_range_entry_raises(self, ring, exps):
        with pytest.raises(ExponentOverflow):
            Series(ring, {exps: 1}, None)
        with pytest.raises(ExponentOverflow):
            Series.monomial(ring, 1, exps)
        edge = tuple(e - (e > 0) + (e < 0) for e in exps)
        assert Series.monomial(ring, 1, edge).terms == {edge: 1}

    def test_out_of_range_geometric_and_substitution_raise(self):
        # The 8th power of a^(LIMIT/8) reaches the limit at degree LIMIT.
        with pytest.raises(ExponentOverflow):
            Series.one(SINGLE_Q, LIMIT).times_factor(1, (LIMIT // 8,), inverted=True)
        below = Series.one(SINGLE_Q, LIMIT - 1).times_factor(1, (LIMIT // 8,), inverted=True)
        assert below.bound == 7 * LIMIT // 8
        # Every image has degree 1; a part of size 3 has a^2, which maps to x^LIMIT.
        wide = SubstitutionMap(
            FOUR_PARAM, XZQ, ((LIMIT // 2, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1))
        )
        with pytest.raises(ExponentOverflow):
            class_weight_series(PartitionClass.ALL, 3, wide)
        # At weight 2, (2) and (1, 1) both have a^1.
        edge = class_weight_series(PartitionClass.ALL, 2, wide)
        assert edge.degree_slice(2) == {(LIMIT // 2, 0, 2): 2}

    def test_out_of_range_product_raises(self):
        top = Series.monomial(XZQ, 1, (LIMIT // 2, 0, 0))
        bottom = Series.monomial(XZQ, 1, (-(LIMIT // 2), 0, 1))
        with pytest.raises(ExponentOverflow):
            top * top
        with pytest.raises(ExponentOverflow):
            bottom * bottom
        # The guard is the bound, checked before the walk: a product whose
        # exponents would cancel back into range is refused too.
        with pytest.raises(ExponentOverflow):
            top * bottom
        below = Series.monomial(XZQ, 1, (LIMIT // 2 - 1, 0, 0))
        assert (top * below).terms == {(LIMIT - 1, 0, 0): 1}

    def test_terms_above_the_truncation_do_not_count_toward_the_bound(self):
        s = Series(FOUR_PARAM, {(LIMIT, 0, 0, 0): 1, (1, 0, 0, 0): 2}, 4)
        assert (s.terms, s.bound) == ({(1, 0, 0, 0): 2}, 1)


# -- the Pochhammer-step kernel --------------------------------------------------


@st.composite
def factor_cases(draw, inverted: bool):
    """A series and a factor ``(sign, exps)`` in one ring.  The series is
    truncated (below degree 0 too) or, for a plain factor, often exact; with
    negative weight-0 exponents in ``XZQ``.  A plain
    factor's degree is often negative; an inverted factor's mostly positive,
    since the other inverted cases only raise.  The sign is any small integer."""
    ring = draw(st.sampled_from([FOUR_PARAM, XZQ]))
    terms = draw(st.dictionaries(_ring_exps(ring), coeffs, max_size=10))
    trunc = draw(st.integers(min_value=-2, max_value=10))
    if not inverted and draw(st.booleans()):
        trunc = None
    exps = _ring_exps(ring)
    if not inverted:
        exps = st.one_of(exps, st.tuples(*[st.integers(min_value=-3, max_value=1)] * ring.nvars))
    sign = draw(st.integers(min_value=-2, max_value=2))
    return Series(ring, terms, trunc), sign, draw(exps)


def _general_product_step(f: Series, sign: int, exps: tuple[int, ...], inverted: bool) -> Series:
    """``f`` times the binomial ``1 - sign * x^exps`` as a two-term series, or
    times its geometric expansion ``sum_k (sign * x^exps)^k`` to ``f.trunc``,
    through the general product."""
    ring, trunc = f.ring, f.trunc
    if not inverted:
        terms = {(0,) * ring.nvars: 1}
        terms[exps] = terms.get(exps, 0) - sign  # exps may be the zero vector
        return f * Series(ring, terms, trunc)
    deg = _deg(ring, exps)
    if deg <= 0:
        raise NonPositiveTail(f"monomial {exps} must have positive degree")
    if trunc is None:
        raise PrecisionLoss("the expansion is an infinite series")
    top = trunc // deg
    bound = top * max(map(abs, exps))
    if bound >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"exponent bound {bound}")
    key = ring.pack(exps)
    expansion = {k * deg: {k * key: sign**k} for k in range(top + 1)}
    return f * Series._from_buckets(ring, expansion, bound, trunc)


def check_times_factor(f: Series, sign: int, exps: tuple[int, ...], inverted: bool) -> None:
    try:
        expected = _general_product_step(f, sign, exps, inverted)
    except SeriesError as err:
        with pytest.raises(type(err)):
            f.times_factor(sign, exps, inverted)
        return
    got = f.times_factor(sign, exps, inverted)
    assert_storage_invariant(got)
    assert got == expected
    assert (got.min_deg, got.bound) == (expected.min_deg, expected.bound)


_real_shift_walk = series._shift_walk


def _short_division(buckets, source, degrees, *args):
    """A division walk, the kernel's one walk over a ``range`` of source
    degrees, stopped one source degree short."""
    if isinstance(degrees, range):
        degrees = degrees[:-1]
    _real_shift_walk(buckets, source, degrees, *args)


def assert_sums_caught_by_degree_8() -> None:
    """A catalog identity and a summation check fail, each with a first
    difference of degree at most 8."""
    spec = verify_spec(spec_by_key("g1-four"), 8)
    assert not spec.passed
    assert min(int(d) for d in re.findall(r"degree-(\d+) slices", " ".join(spec.failures))) <= 8
    gauss = check_q_gauss(A_INFINITY, (-1, (0, 1, 0, 0)), (1, (1, 1, 0, 0)), 8)
    assert not gauss.passed
    (at,) = re.findall(r"^at \(([-\d, ]+)\)", gauss.failures[0])
    assert sum(int(e) for e in at.split(",")) <= 8


def assert_caught_by_degree_8() -> None:
    """As :func:`assert_sums_caught_by_degree_8`, and the q-binomial checks
    fail too, with a first difference of degree at most 8."""
    assert_sums_caught_by_degree_8()
    binomials = check_qbinomial_recurrences(3)
    assert not binomials.passed
    at = re.findall(r" at \(([-\d, ]+)\)", " ".join(binomials.failures))
    assert min(sum(int(e) for e in exps.split(",")) for exps in at) <= 8


def assert_division_caught_by_degree_8() -> None:
    """As :func:`assert_sums_caught_by_degree_8`, and the skeleton assembly,
    which divides by one binomial per length, fails too, with a first
    difference of degree at most 8.  The q-binomial checks divide by nothing."""
    assert_sums_caught_by_degree_8()
    four = check_sip_gf_four_parameter(PartitionClass.P1, 8)
    assert not four.passed
    assert min(int(d) for d in re.findall(r"degree (\d+):", " ".join(four.failures))) <= 8


class TestTimesFactor:
    """``Series.times_factor`` against the general product it replaces, its
    precision guards, and faults in it that the checks must catch.  The
    inverted factor's own guards (positive degree, finite truncation, the
    expansion's bound) are tested in ``TestGeometric`` and ``TestPackedKeys``."""

    @settings(max_examples=300)
    @given(factor_cases(inverted=False))
    def test_plain_factor_matches_product_with_binomial(self, case):
        check_times_factor(*case, inverted=False)

    @settings(max_examples=300)
    @given(factor_cases(inverted=True))
    def test_inverted_factor_matches_product_with_expansion(self, case):
        check_times_factor(*case, inverted=True)

    def test_inverted_factor_on_negative_degrees_raises(self):
        f = Series(FOUR_PARAM, {(0, 0, 0, 0): 1, (-1, 0, 0, 0): 2}, 6)
        with pytest.raises(PrecisionLoss):
            f.times_factor(1, (1, 0, 0, 0), inverted=True)

    def test_negative_degree_factor_on_incomplete_series_raises(self):
        f = Series.one(FOUR_PARAM, 6)
        exact = Series.one(FOUR_PARAM).times_factor(1, (1, -2, 0, 0))
        assert exact.terms == {(0, 0, 0, 0): 1, (1, -2, 0, 0): -1}
        with pytest.raises(PrecisionLoss):
            f.times_factor(1, (1, -2, 0, 0))

    def test_overflowing_bound_raises(self):
        top = Series.monomial(XZQ, 1, (LIMIT // 2, 0, 0), 8)
        with pytest.raises(ExponentOverflow):
            top.times_factor(1, (LIMIT // 2, 0, 1))
        with pytest.raises(ExponentOverflow):
            top.times_factor(1, (LIMIT // 16, 0, 1), inverted=True)
        below = top.times_factor(1, (LIMIT // 2 - 1, 0, 1))
        assert (below.bound, below.degree_slice(1)) == (LIMIT - 1, {(LIMIT - 1, 0, 1): -1})
        # An out-of-range factor is refused before the precision rules apply,
        # as building it as a series was.
        laurent = Series.monomial(XZQ, 1, (0, 0, -1), 8)
        with pytest.raises(ExponentOverflow):
            laurent.times_factor(1, (LIMIT, 0, -1))
        with pytest.raises(ExponentOverflow):
            laurent.times_factor(1, (LIMIT // 8, 0, 1), inverted=True)

    def test_shortened_division_step_is_caught(self, monkeypatch):
        monkeypatch.setattr(series, "_shift_walk", _short_division)
        assert_division_caught_by_degree_8()

    def test_flipped_binomial_sign_is_caught(self, monkeypatch):
        real = Series.times_run

        def flipped(self, steps):
            return real(self, [
                (kind, -args[0], *args[1:]) if kind == "times" else (kind, *args)
                for kind, *args in steps
            ])

        monkeypatch.setattr(Series, "times_run", flipped)
        assert_caught_by_degree_8()


# -- the run kernel ----------------------------------------------------------------


@st.composite
def binomial_runs(draw):
    """A series as in ``factor_cases`` and a run of one to four binomial steps
    in its ring, plain or inverted, with any small sign."""
    f, _, _ = draw(factor_cases(inverted=False))
    negative = st.tuples(*[st.integers(min_value=-3, max_value=1)] * f.ring.nvars)
    plain = st.one_of(_ring_exps(f.ring), negative)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        inverted = draw(st.booleans())
        exps = draw(_ring_exps(f.ring) if inverted else plain)
        sign = draw(st.integers(min_value=-2, max_value=2))
        steps.append(("over" if inverted else "times", sign, exps))
    return f, steps


def _snapshot_buckets(s: Series) -> dict[int, dict[int, int]]:
    return {deg: dict(bucket) for deg, bucket in s.buckets.items()}


def _same_series(got: Series, expected: Series) -> None:
    assert_storage_invariant(got)
    assert got == expected
    assert (got.min_deg, got.bound) == (expected.min_deg, expected.bound)


def _ascending_times(buckets, source, degrees, *args):
    """A multiplication walk, over the run's own buckets but not a ``range``,
    walked towards its targets, so each source is read after it is written."""
    if source is buckets and not isinstance(degrees, range):
        degrees = degrees[::-1]
    _real_shift_walk(buckets, source, degrees, *args)


def _descending_over(buckets, source, degrees, *args):
    """A division walk walked away from its targets, so each source is read
    before it is final."""
    if isinstance(degrees, range):
        degrees = degrees[::-1]
    _real_shift_walk(buckets, source, degrees, *args)


def _cut_short_poly(buckets, poly, trunc):
    """The polynomial product losing, where it cuts at the truncation, the
    top product bucket still below the cut."""
    ladder = sorted(poly.items())
    out: dict[int, dict[int, int]] = {}
    for d, src in buckets.items():
        walk = [(pd, pb) for pd, pb in ladder if trunc is None or d + pd <= trunc]
        if len(walk) < len(ladder):
            walk = walk[:-1]
        for pd, pb in walk:
            acc = out.setdefault(d + pd, {})
            for pk, pc in pb.items():
                for k, c in src.items():
                    acc[k + pk] = acc.get(k + pk, 0) + pc * c
    return out


class TestRunKernel:
    """``Series.times_run`` against the same steps one at a time through the
    general product (the reference ``times_factor`` is held to above), the
    ``add`` step against a flat sum, and faults in the kernel's walks that the
    checks must catch."""

    @settings(max_examples=300, deadline=None)
    @given(binomial_runs())
    def test_binomial_run_matches_the_steps_one_at_a_time(self, case):
        f, steps = case
        before = _snapshot_buckets(f)
        expected = f
        try:
            for kind, sign, exps in steps:
                expected = _general_product_step(expected, sign, exps, kind == "over")
        except SeriesError as err:
            with pytest.raises(type(err)):
                f.times_run(steps)
        else:
            _same_series(f.times_run(steps), expected)
        assert _snapshot_buckets(f) == before  # shared buckets are never written

    @settings(max_examples=300, deadline=None)
    @given(series_pairs())
    @example((Series.one(FOUR_PARAM, 4), Series.one(XZQ, 4)))
    @example((Series.one(FOUR_PARAM, 4), Series.one(FOUR_PARAM, 5)))
    # An exact run adopts the addend's truncation and drops its term above it.
    @example((Series(FOUR_PARAM, {(3, 0, 0, 0): 1, (0, 0, 0, 0): 2}, None),
              Series.one(FOUR_PARAM, 2)))
    def test_add_step_matches_plus(self, pair):
        """An ``add`` step is the sum ``plus`` is held to: the flat sum, cut at
        the common truncation, with the larger bound, or the error of a ring
        or truncation mismatch; and it leaves the addend's buckets as they
        were."""
        f, g = pair
        if f.ring != g.ring:
            with pytest.raises(RingMismatch):
                f.times_run((("add", g),))
            return
        if None not in (f.trunc, g.trunc) and f.trunc != g.trunc:
            with pytest.raises(TruncationMismatch, match=f"{f.trunc} vs {g.trunc}"):
                f.times_run((("add", g),))
            return
        before = _snapshot_buckets(g)
        got = f.times_run((("add", g),))
        assert_storage_invariant(got)
        assert _observed(got) == _naive_add(f, g)
        assert got.bound == max(f.bound, g.bound)
        assert _snapshot_buckets(g) == before

    def test_unknown_step_is_refused(self):
        """A step kind other than ``times``, ``over`` and ``add``, or a
        binomial of the wrong arity, raises instead of being skipped."""
        f = Series.one(FOUR_PARAM, 4)
        with pytest.raises(ValueError, match="unknown run step 'poly'"):
            f.times_run((("poly", Series.one(FOUR_PARAM), 4),))
        with pytest.raises(ValueError, match="wrong arity"):
            f.times_run((("times", 1, (1, 0, 0)),))

    def test_dropped_top_product_bucket_is_caught(self, monkeypatch):
        """The cut in ``Series.__mul__``: the series sides' forward passes
        and the q-binomial checks, whose quotient forms are truncated
        products, fail."""
        monkeypatch.setattr(series, "_times_poly", _cut_short_poly)
        assert_caught_by_degree_8()

    def test_ascending_multiplication_is_caught(self, monkeypatch):
        monkeypatch.setattr(series, "_shift_walk", _ascending_times)
        assert_sums_caught_by_degree_8()

    def test_descending_division_is_caught(self, monkeypatch):
        monkeypatch.setattr(series, "_shift_walk", _descending_over)
        assert_division_caught_by_degree_8()

    @pytest.mark.parametrize(
        "operate",
        [
            lambda g: g.times_run((("times", 1, (1, 0, 0, 0)),)),
            lambda g: g.times_run((("over", -1, (0, 1, 0, 0)),)),
            lambda g: Series.zero(FOUR_PARAM, 8).times_run(
                (("add", g), ("times", 1, (1, 0, 0, 0)))
            ),
            lambda g: Series.zero(FOUR_PARAM).times_run(
                (("add", g), ("times", 1, (1, 0, 0, 0)))
            ),
            lambda g: g.times_run((("add", g), ("over", -1, (0, 1, 0, 0)))),
            lambda g: g.plus((g,)),
            lambda g: Series.zero(FOUR_PARAM, 8).plus((g, g)),
            lambda g: g * g,
        ],
        ids=["times", "over", "add", "add-onto-exact", "add-onto-itself", "plus",
             "plus-onto-zero", "mul"],
    )
    def test_shared_buckets_are_never_written(self, operate):
        """A truncation shares its bucket dicts with the series it cuts; no
        step kind, sum or product on the cut changes the uncut series."""
        spec = spec_by_key("g1-four")
        f = product_side(spec, 12)
        g = f.truncate(8)
        assert all(g.buckets[d] is f.buckets[d] for d in g.buckets)
        before = _snapshot_buckets(f)
        operate(g)
        assert f == product_side(spec, 12)
        assert _snapshot_buckets(f) == before
