"""Pochhammer products, Gaussian binomials, and the two classical summations."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from sipq.qseries import (
    A_INFINITY,
    DomainError,
    NonConvergent,
    check_q_gauss,
    check_qbinomial_recurrences,
    check_qbinomial_theorem,
    gauss_binomial,
    pochhammer_finite,
    pochhammer_infinite,
    q_monomial,
)
from sipq.series import FOUR_PARAM, SINGLE_Q, Series

Q = (1, 1, 1, 1)


def test_q_monomial():
    assert q_monomial(3).terms == {(3, 3, 3, 3): 1}
    assert q_monomial(0, trunc=5).trunc == 5


class TestPochhammerFinite:
    def test_empty_product_is_one(self):
        arg = Series.monomial(FOUR_PARAM, -1, (1, 1, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        assert pochhammer_finite(arg, base, 0, None).terms == {(0, 0, 0, 0): 1}

    def test_single_factor(self):
        # (-b; Q)_1 = 1 + b
        arg = Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        p = pochhammer_finite(arg, base, 1, None)
        assert p.terms == {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1}

    def test_two_factors_with_laurent_argument(self):
        # (-1/c; Q)_2 = (1 + 1/c)(1 + Q/c)
        arg = Series.monomial(FOUR_PARAM, -1, (0, 0, -1, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        p = pochhammer_finite(arg, base, 2, None)
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
            pochhammer_finite(arg, base, -1, None)

    @given(st.integers(min_value=0, max_value=6))
    def test_single_q_descending(self, n):
        """(q; q)_n has constant term 1 and top coefficient (-1)^n."""
        arg = Series.monomial(SINGLE_Q, 1, (1,))
        p = pochhammer_finite(arg, arg, n, None)
        assert p.coefficient((0,)) == 1
        top = n * (n + 1) // 2
        assert p.coefficient((top,)) == (-1) ** n


class TestPochhammerInfinite:
    def test_truncation_required(self):
        arg = q_monomial(1)
        with pytest.raises(ValueError):
            pochhammer_infinite(arg, arg, None)

    def test_matches_finite_once_factors_leave_range(self):
        arg = Series.monomial(FOUR_PARAM, -1, (1, 0, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        inf = pochhammer_infinite(arg, base, 4)
        fin = pochhammer_finite(arg, base, 5, 4)
        assert inf.terms == fin.terms

    def test_euler_pentagonal_prefix(self):
        # (q; q)_inf = 1 - q - q^2 + q^5 + q^7 - q^12 - ...
        arg = Series.monomial(SINGLE_Q, 1, (1,))
        p = pochhammer_infinite(arg, arg, 13)
        assert p.terms == {
            (0,): 1, (1,): -1, (2,): -1, (5,): 1, (7,): 1, (12,): -1,
        }

    def test_degenerate_argument_rejected(self):
        # argument of degree 0 would never converge
        arg = Series.monomial(FOUR_PARAM, 1, (0, 0, 0, 0))
        base = Series.monomial(FOUR_PARAM, 1, Q)
        with pytest.raises(NonConvergent):
            pochhammer_infinite(arg, base, 4)


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

    def test_zero_rows_is_vacuous(self):
        report = check_qbinomial_recurrences(0)
        assert report.passed


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
