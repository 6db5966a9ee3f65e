"""Pochhammer products, Gaussian binomials, and the two classical summations."""

from __future__ import annotations

import re
from itertools import chain, count, islice

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from sipq import identities, qseries, sip
from sipq.partitions import PartitionClass
from sipq.qseries import (
    A_INFINITY,
    DomainError,
    NonConvergent,
    PochFactor,
    check_q_gauss,
    check_qbinomial_recurrences,
    check_qbinomial_theorem,
    gauss_binomial,
    pochhammer_finite,
    pochhammer_infinite,
    q_monomial,
    running_product,
    sum_levels,
    truncated_infinite_product,
)
from sipq.series import FOUR_PARAM, SINGLE_Q, XZQ, PrecisionLoss, Series

Q = (1, 1, 1, 1)

#: The battery's three q-Gauss instances, as ``(a, b, c)``.
_Q_GAUSS_INSTANCES = (
    (A_INFINITY, Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0)), (1, 1, 0, 0)),
    (A_INFINITY, Series.monomial(FOUR_PARAM, -1, (0, 0, -1, 0)), (1, 1, 0, 0)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (2, 2, 1, 1)),
)


def test_q_monomial():
    assert q_monomial(3).terms == {(3, 3, 3, 3): 1}


class TestPochhammerFinite:
    def test_empty_product_is_one(self):
        arg = Series.monomial(FOUR_PARAM, -1, (1, 1, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        assert pochhammer_finite(arg, base, 0).terms == {(0, 0, 0, 0): 1}

    def test_single_factor(self):
        # (-b; Q)_1 = 1 + b
        arg = Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        p = pochhammer_finite(arg, base, 1)
        assert p.terms == {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1}

    def test_two_factors_with_laurent_argument(self):
        # (-1/c; Q)_2 = (1 + 1/c)(1 + Q/c)
        arg = Series.monomial(FOUR_PARAM, -1, (0, 0, -1, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        p = pochhammer_finite(arg, base, 2)
        assert p.terms == {
            (0, 0, 0, 0): 1,
            (0, 0, -1, 0): 1,
            (1, 1, 0, 1): 1,
            (1, 1, -1, 1): 1,
        }

    def test_negative_count_rejected(self):
        arg = Series.monomial(FOUR_PARAM, 1, (1, 0, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        with pytest.raises(ValueError):
            pochhammer_finite(arg, base, -1)

    @given(st.integers(min_value=0, max_value=6))
    def test_single_q_descending(self, n):
        """(q; q)_n has constant term 1 and top coefficient (-1)^n."""
        arg = Series.monomial(SINGLE_Q, 1, (1,))
        p = pochhammer_finite(arg, arg, n)
        assert p.constant_term() == 1
        top = n * (n + 1) // 2
        assert p.degree_slice(top) == {(top,): (-1) ** n}


class TestPochhammerInfinite:
    def test_truncation_required(self):
        arg = q_monomial(1)
        with pytest.raises(ValueError):
            pochhammer_infinite(arg, arg, None)

    def test_matches_finite_once_factors_leave_range(self):
        arg = Series.monomial(FOUR_PARAM, -1, (1, 0, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        inf = pochhammer_infinite(arg, base, 4)
        fin = pochhammer_finite(arg, base, 5).truncate(4)
        assert inf.terms == fin.terms

    def test_euler_pentagonal_prefix(self):
        # (q; q)_inf = 1 - q - q^2 + q^5 + q^7 - q^12 - ...
        arg = Series.monomial(SINGLE_Q, 1, (1,))
        p = pochhammer_infinite(arg, arg, 13)
        assert p.terms == {
            (0,): 1, (1,): -1, (2,): -1, (5,): 1, (7,): 1, (12,): -1,
        }

    @pytest.mark.parametrize(
        "trunc, terms", ((0, {(0,): 1}), (1, {(0,): 1, (1,): -1}))
    )
    def test_product_of_the_factors_below_the_truncation_is_not_complete(self, trunc, terms):
        # (q; q)_inf to order 0 or 1: the factors below the truncation multiply
        # to 1 or 1 - q exactly, but the infinite product goes on with -q^2.
        arg = Series.monomial(SINGLE_Q, 1, (1,))
        p = pochhammer_infinite(arg, arg, trunc)
        assert p.terms == terms
        with pytest.raises(PrecisionLoss):
            p.truncate(2)

    def test_degenerate_argument_rejected(self):
        # argument of degree 0 would never converge
        arg = Series.monomial(FOUR_PARAM, 1, (0, 0, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        with pytest.raises(NonConvergent):
            pochhammer_infinite(arg, base, 4)


# Exponent tuples of positive degree.  In ``XZQ`` the weight-0 exponents of x
# and z range over negative values too; in ``FOUR_PARAM`` single exponents may
# be negative.
FOUR_EXPS = st.tuples(*[st.integers(min_value=-2, max_value=3)] * 4).filter(
    lambda e: sum(e) > 0
)
XZQ_EXPS = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def run_data():
    """A ring with an argument and a base exponent tuple, both of positive degree."""
    return st.one_of(
        st.tuples(st.just(FOUR_PARAM), FOUR_EXPS, FOUR_EXPS),
        st.tuples(st.just(XZQ), XZQ_EXPS, XZQ_EXPS),
    )


def factor_lists():
    """A ring with one to three infinite factors."""

    def in_ring(ring, exps):
        factor = st.builds(
            PochFactor, st.sampled_from([1, -1]), exps, exps, inverted=st.booleans()
        )
        return st.tuples(st.just(ring), st.lists(factor, min_size=1, max_size=3))

    return st.one_of(in_ring(FOUR_PARAM, FOUR_EXPS), in_ring(XZQ, XZQ_EXPS))


class TestRunningProduct:
    @settings(max_examples=60, deadline=None)
    @given(
        run_data(),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10),
    )
    def test_matches_explicit_binomials(self, data, sign, k, trunc):
        ring, arg, base = data
        explicit = Series.one(ring)
        exps = arg
        for _ in range(k):
            explicit = explicit * (Series.one(ring) - Series.monomial(ring, sign, exps))
            exps = tuple(e + b for e, b in zip(exps, base))
        factor = PochFactor(sign, arg, base)
        exact = next(islice(running_product(ring, factor, None), k, None))
        assert exact.terms == explicit.terms
        truncated = next(islice(running_product(ring, factor, trunc), k, None))
        assert truncated.terms == explicit.truncate(trunc).terms
        inverted = factor._replace(inverted=True)
        inverse = next(islice(running_product(ring, inverted, trunc), k, None))
        assert inverse.terms == explicit.invert_unit(trunc).terms

    def test_truncated_run_settles_on_the_infinite_product(self):
        # (q; q^3) to order 3: only the factor 1 - q lies below the truncation,
        # so from the product of that one factor on, 1 - q^4 and later factors
        # follow, and the run settles on one series.
        run = running_product(SINGLE_Q, PochFactor(1, (1,), (3,)), 3)
        products = [next(run) for _ in range(5)]
        assert products[1].terms == {(0,): 1, (1,): -1}
        assert all(p is products[1] for p in products[2:])

    @pytest.mark.parametrize(
        "ring, arg, base, trunc, inverted, error",
        (
            (XZQ, (0, 0, 1), (1, 0, 0), None, False, ValueError),
            (XZQ, (1, 0, 0), (0, 0, 1), 8, False, NonConvergent),
            (FOUR_PARAM, (1, -1, 0, 0), Q, 8, True, NonConvergent),
            (FOUR_PARAM, Q, Q, None, True, PrecisionLoss),
        ),
    )
    def test_rejections(self, ring, arg, base, trunc, inverted, error):
        with pytest.raises(error):
            next(running_product(ring, PochFactor(1, arg, base, inverted=inverted), trunc))

    def test_run_starting_one_factor_late_is_caught(self, monkeypatch):
        """Pochhammer factors that start at ``arg * base`` instead of ``arg`` fail
        a catalog identity, every summation check and the partial sums through
        the products and summands, and a skeleton assembly through its
        divisions, by degree 8."""
        real = PochFactor.argument
        monkeypatch.setattr(PochFactor, "argument", lambda self, i: real(self, i + 1))
        spec = identities.verify_spec(identities.spec_by_key("g1-four"), 8)
        assert not spec.passed
        assert min(int(d) for d in re.findall(r"degree-(\d+) slices", " ".join(spec.failures))) <= 8
        for a, b, c in _Q_GAUSS_INSTANCES:
            gauss = check_q_gauss(a, b, c, 8)
            assert not gauss.passed, gauss.name
            (at,) = re.findall(r"^at \(([-\d, ]+)\)", gauss.failures[0])
            assert sum(int(e) for e in at.split(",")) <= 8, gauss.name
        four = sip.check_sip_gf_four_parameter(PartitionClass.P1, 8)
        assert not four.passed
        assert min(int(d) for d in re.findall(r"degree (\d+):", " ".join(four.failures))) <= 8
        assert not check_qbinomial_recurrences(10).passed
        assert not check_qbinomial_theorem(6, (1, 1, 0, 1)).passed
        assert not identities.verify_partial_sums(PartitionClass.P1, 4, 8).passed


def _running_products(ring, factors, trunc):
    """The reference product: one running product per factor, read at index
    ``trunc + 1`` (past the index where it settles), multiplied together with
    the general product."""
    out = Series.one(ring, trunc)
    for factor in factors:
        out = out * next(islice(running_product(ring, factor, trunc), trunc + 1, None))
    return out


def _catalog_products():
    """Each statement's product and alternate product, with its factors."""
    for spec in identities.registry():
        for alt, factors in ((False, spec.product), (True, spec.product_alt)):
            if factors is not None:
                yield pytest.param(spec, alt, factors, id=spec.key + ("-alt" if alt else ""))


def _same_series(got, expected):
    assert got == expected
    assert (got.trunc, got.bound) == (expected.trunc, expected.bound)


class TestTruncatedInfiniteProduct:
    @pytest.mark.parametrize("spec, alt, factors", _catalog_products())
    def test_catalog_products_match_the_running_products(self, spec, alt, factors):
        for trunc in range(41):
            expected = _running_products(spec.ring, factors, trunc)
            _same_series(identities.product_side(spec, trunc, alt), expected)

    @settings(max_examples=60, deadline=None)
    @given(factor_lists(), st.integers(min_value=0, max_value=12))
    def test_matches_the_running_products(self, data, trunc):
        ring, factors = data
        got = truncated_infinite_product(ring, factors, trunc)
        _same_series(got, _running_products(ring, factors, trunc))

    @pytest.mark.parametrize("spec, alt, factors", _catalog_products())
    def test_binomials_are_applied_largest_degree_first(self, monkeypatch, spec, alt, factors):
        """The order changes no coefficient, so only this guard sees it: every
        binomial of degree <= trunc is applied once, in descending degree, ties
        in factor order."""
        trunc = 24
        applied = []
        real = Series.times_run

        def record(self, steps):
            steps = list(steps)
            for kind, sign, exps in steps:
                applied.append((self.ring.degree(exps), sign, tuple(exps), kind == "over"))
            return real(self, steps)

        monkeypatch.setattr(Series, "times_run", record)
        identities.product_side(spec, trunc, alt)
        binomials = []
        for f in factors:
            for i in count():
                exps = tuple(a + i * b for a, b in zip(f.arg_exps, f.base_exps))
                if spec.ring.degree(exps) > trunc:
                    break
                binomials.append((spec.ring.degree(exps), f.sign, exps, f.inverted))
        assert applied == sorted(binomials, key=lambda b: b[0], reverse=True)
        assert applied[0][0] > applied[-1][0]

    @pytest.mark.parametrize(
        "ring, factor, trunc, error",
        (
            (XZQ, PochFactor(1, (0, 0, 1), (1, 0, 0)), 8, ValueError),
            (XZQ, PochFactor(1, (1, 0, 0), (0, 0, 1)), 8, NonConvergent),
            (FOUR_PARAM, PochFactor(1, (1, -1, 0, 0), Q, inverted=True), 8, NonConvergent),
            (FOUR_PARAM, PochFactor(1, Q, Q), -1, ValueError),
        ),
    )
    def test_rejections(self, ring, factor, trunc, error):
        with pytest.raises(error):
            truncated_infinite_product(ring, [factor], trunc)


@pytest.mark.parametrize(
    "arg, base",
    (((1, 0, 0, 0), (1, 1, 1, 1, 7)), ((1, 0, 0, 0), (1, 1, 1)), ((1, 0, 0), Q), ((1, 0, 0, 0, 0), Q)),
    ids=("long-base", "short-base", "short-argument", "long-argument"),
)
def test_exponent_tuple_of_the_wrong_length_rejected(arg, base):
    """A factor's argument or base with an entry too many or too few is
    refused by every product, not cut short to the ring's variables."""
    factor = PochFactor(-1, arg, base)
    with pytest.raises(ValueError, match="must have 4 entries"):
        truncated_infinite_product(FOUR_PARAM, [factor], 8)
    for trunc in (8, None):
        with pytest.raises(ValueError, match="must have 4 entries"):
            next(running_product(FOUR_PARAM, factor, trunc))


class TestGaussBinomial:
    def test_edges(self):
        one = {(0, 0, 0, 0): 1}
        assert gauss_binomial(0, 0).terms == one
        assert gauss_binomial(5, 0).terms == one
        assert gauss_binomial(5, 5).terms == one
        assert gauss_binomial(3, 5).is_zero()
        assert gauss_binomial(3, -1).is_zero()

    def test_two_choose_one(self):
        assert gauss_binomial(2, 1).terms == {(0, 0, 0, 0): 1, Q: 1}

    def test_four_choose_two(self):
        # 1 + Q + 2Q^2 + Q^3 + Q^4
        got = gauss_binomial(4, 2).terms
        assert got == {
            (0, 0, 0, 0): 1,
            (1, 1, 1, 1): 1,
            (2, 2, 2, 2): 2,
            (3, 3, 3, 3): 1,
            (4, 4, 4, 4): 1,
        }

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
    def test_symmetry_positivity_degree(self, n, m):
        f = gauss_binomial(n, m)
        assert f.terms == gauss_binomial(n, n - m).terms
        assert all(c > 0 for c in f.terms.values())
        if 0 <= m <= n:
            assert f.degree_slice(4 * m * (n - m)) != {}


class TestRecurrenceBattery:
    def test_passes(self):
        report = check_qbinomial_recurrences(10)
        assert report.passed
        assert report.checks > 0
        assert report.failures == ()

    def test_base_product_one_binomial_short_is_caught(self, monkeypatch):
        """With every ``(Q;Q)_m`` replaced by ``(Q;Q)_(m-1)`` the quotient form
        fails, and only it."""
        real = qseries.running_product

        def short(ring, factor, trunc):
            run = real(ring, factor, trunc)
            if factor.arg_exps == factor.base_exps:
                return chain([Series.one(ring, trunc)], run)
            return run

        monkeypatch.setattr(qseries, "running_product", short)
        report = check_qbinomial_recurrences(10)
        assert not report.passed
        assert report.checks == 260
        assert all(" quotient-form: " in f for f in report.failures)
        assert "[2,1] quotient-form: " in report.failures[0]

    def test_zero_rows_is_vacuous(self):
        report = check_qbinomial_recurrences(0)
        assert report.passed

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            check_qbinomial_recurrences(-1)


class TestBinomialTheorem:
    def test_with_series_argument(self):
        z = Series.monomial(FOUR_PARAM, 1, (1, 2, 1, 1))
        report = check_qbinomial_theorem(6, z)
        assert report.passed
        assert "qbinomial-theorem" in report.name

    def test_with_exponent_tuple(self):
        report = check_qbinomial_theorem(6, (1, 1, 0, 1))
        assert report.passed

    def test_trivial_row_count(self):
        assert check_qbinomial_theorem(0, (1, 1, 0, 1)).passed

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            check_qbinomial_theorem(-1, (1, 1, 0, 1))

    def test_degree_zero_argument_rejected(self):
        with pytest.raises(DomainError):
            check_qbinomial_theorem(4, (0, 0, 0, 0))

    def test_truncated_argument_rejected(self):
        z = Series.monomial(FOUR_PARAM, 1, (1, 2, 1, 1), trunc=8)
        with pytest.raises(DomainError):
            check_qbinomial_theorem(4, z)

    def test_multi_term_argument_rejected(self):
        z = Series(FOUR_PARAM, {(1, 2, 1, 1): 1, (2, 2, 1, 1): 1}, None)
        with pytest.raises(DomainError):
            check_qbinomial_theorem(4, z)


class TestQGauss:
    def test_first_limit_instance(self):
        b = Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0))
        report = check_q_gauss(A_INFINITY, b, (1, 1, 0, 0), 16)
        assert report.passed
        assert "A_INFINITY" in report.name

    def test_second_limit_instance(self):
        b = Series.monomial(FOUR_PARAM, -1, (0, 0, -1, 0))
        report = check_q_gauss(A_INFINITY, b, (1, 1, 0, 0), 16)
        assert report.passed

    def test_generic_instance(self):
        report = check_q_gauss((1, 0, 0, 0), (0, 1, 0, 0), (2, 2, 1, 1), 16)
        assert report.passed

    def test_ratio_must_have_positive_degree(self):
        with pytest.raises(DomainError):
            check_q_gauss((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), 12)

    def test_truncation_required(self):
        with pytest.raises(DomainError):
            check_q_gauss(A_INFINITY, (0, 1, 0, 0), (1, 1, 0, 0), None)

    def test_negative_degree_step_rejected_before_summing(self):
        """With c = ab and b = b^3 the limit's first step polynomial -(c/b)(1 - b)
        has the term -c/b = -a*b^-2 of degree -1: the forward pass raises
        PrecisionLoss at that step, so the check's c/b guard refuses the
        parameters first."""
        b, c = (0, 3, 0, 0), (1, 1, 0, 0)
        factors = [
            PochFactor(1, b, Q, (1, 0)),
            PochFactor(1, Q, Q, (1, 0), inverted=True),
            PochFactor(1, c, Q, (1, 0), inverted=True),
        ]
        step = Series.monomial(FOUR_PARAM, -1, (1, -2, 0, 0))
        levels = sum_levels(Series.one(FOUR_PARAM), lambda n: step * q_monomial(n), factors, 12)
        next(levels)
        with pytest.raises(PrecisionLoss, match="^step polynomial .* has a negative-degree term$"):
            next(levels)
        with pytest.raises(DomainError, match="c/b"):
            check_q_gauss(A_INFINITY, b, c, 12)


def _rebuilt_q_gauss_sum(step, pairs, sum_args, c, trunc):
    """The sum side with each summand built from scratch: step^n Q^(pairs*C(n,2))
    times the exact numerator running products, truncated, times the inverted
    runs (Q;Q) and (c;Q)."""
    numerators = [
        running_product(FOUR_PARAM, PochFactor(sign, exps, Q), None) for sign, exps in sum_args
    ]
    denominators = [
        running_product(FOUR_PARAM, PochFactor(1, Q, Q, inverted=True), trunc),
        running_product(FOUR_PARAM, PochFactor(1, c, Q, inverted=True), trunc),
    ]
    total = Series.zero(FOUR_PARAM, trunc)
    step_power = Series.one(FOUR_PARAM)  # step^n
    for n in count():
        poly = step_power * q_monomial(pairs * n * (n - 1) // 2)
        step_power = step_power * step
        for run in numerators:
            poly = poly * next(run)
        if poly.min_deg > trunc:
            return total
        term = poly.truncate(trunc)
        for run in denominators:
            term = term * next(run)
        total = total + term


@pytest.mark.parametrize("trunc", (8, 16, 24))
@pytest.mark.parametrize(
    "a, b, c, step, pairs, sum_args",
    (
        (A_INFINITY, Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0)), (1, 1, 0, 0),
         (1, 0, 0, 0), 1, [(-1, (0, 1, 0, 0))]),
        (A_INFINITY, Series.monomial(FOUR_PARAM, -1, (0, 0, -1, 0)), (1, 1, 0, 0),
         (1, 1, 1, 0), 1, [(-1, (0, 0, -1, 0))]),
        ((1, 0, 0, 0), (0, 1, 0, 0), (2, 2, 1, 1), Q, 0, [(1, (1, 0, 0, 0)), (1, (0, 1, 0, 0))]),
    ),
    ids=("minus-b", "minus-c-inverse", "generic"),
)
def test_q_gauss_sum_side_matches_rebuilt_summands(monkeypatch, trunc, a, b, c, step, pairs, sum_args):
    """The battery's q-Gauss sum sides, summed, equal the sums of summands built
    from scratch: same coefficients and truncation."""
    compared = []
    real = Series.equal_to
    monkeypatch.setattr(Series, "equal_to", lambda s, o: compared.append(s) or real(s, o))
    assert check_q_gauss(a, b, c, trunc).passed
    (summed,) = compared
    rebuilt = _rebuilt_q_gauss_sum(Series.monomial(FOUR_PARAM, 1, step), pairs, sum_args, c, trunc)
    assert (summed, summed.trunc) == (rebuilt, rebuilt.trunc)
