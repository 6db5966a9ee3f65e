"""Pochhammer products and classical summation checks, in exact arithmetic.

Everything here lives in the four-variable ring with base ``Q = abcd`` (or in
whatever ring the caller's argument series use, for the finite products).
``pochhammer_finite(x, Q, n, t)`` is the product ``(1-x)(1-xQ)...(1-xQ^{n-1})``,
so the classical ``(x; Q)_n`` with a sign goes in through the argument.
Inverted products, finite or infinite, are built one :meth:`Series.geometric`
factor at a time; ``pochhammer_inverse`` does this for a whole product.
"""

from __future__ import annotations

from functools import lru_cache

from .reporting import CheckReport
from .series import FOUR_PARAM, Series, SeriesError


class NonConvergent(SeriesError):
    """An infinite product whose factors do not tend to 1 degree-wise."""


class DomainError(SeriesError):
    """A summation check was invoked with parameters outside its hypotheses."""


class _AInfinity:
    __slots__ = ()

    def __repr__(self) -> str:
        return "A_INFINITY"


#: Sentinel for the limit where the first numerator parameter grows without bound.
A_INFINITY = _AInfinity()


def q_monomial(power: int, trunc: int | None = None) -> Series:
    """``Q^power`` where ``Q = abcd``."""
    return Series.monomial(FOUR_PARAM, 1, (power,) * 4, trunc)


def pochhammer_finite(arg: Series, base: Series, n: int, trunc: int | None) -> Series:
    """``(1 - arg)(1 - arg*base) ... (1 - arg*base^(n-1))``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if base.is_zero() or base.min_deg < 1:
        raise ValueError("base must have positive degree")
    ring = arg.ring
    prod = Series.one(ring, trunc)
    arg_i = arg
    for _ in range(n):
        prod = prod * (Series.one(ring, trunc) - arg_i)
        arg_i = arg_i * base
    return prod


def pochhammer_infinite(arg: Series, base: Series, trunc: int) -> Series:
    """The infinite product ``prod_i (1 - arg*base^i)`` to order ``trunc``."""
    if trunc is None:
        raise ValueError("an infinite product requires a finite truncation")
    if arg.is_zero() or arg.min_deg < 1 or base.is_zero() or base.min_deg < 1:
        raise NonConvergent("argument and base must have positive degree")
    ring = arg.ring
    prod = Series.one(ring, trunc)
    arg_i = arg
    while arg_i.min_deg <= trunc:
        prod = prod * (Series.one(ring, trunc) - arg_i)
        arg_i = arg_i * base
    # Factors beyond the loop only touch degrees above trunc, but they do exist.
    return Series(ring, prod.terms, trunc, complete=False)


def pochhammer_inverse(arg: Series, base: Series, n: int | None, trunc: int) -> Series:
    """``1 / ((1 - arg)(1 - arg*base) ...)`` over ``n`` factors (all of them
    when ``n`` is None) to order ``trunc``.

    ``arg`` and ``base`` are monomials and ``base`` has unit coefficient; each
    factor is inverted by one :meth:`Series.geometric` expansion, and factors
    of degree above ``trunc`` contribute nothing below it.
    """
    ((exps, coeff),) = arg.terms.items()
    ((step, _),) = base.terms.items()
    if base.min_deg < 1:
        raise ValueError("base must have positive degree")
    ring = arg.ring
    out = Series.one(ring, trunc)
    i = 0
    while (n is None or i < n) and ring.degree(exps) <= trunc:
        out = out * Series.geometric(ring, coeff, exps, trunc)
        exps = tuple(e + s for e, s in zip(exps, step))
        i += 1
    return out


@lru_cache(maxsize=None)
def _gauss_coeffs(n: int, m: int) -> tuple[int, ...]:
    """Coefficients (in the base) of the degree-``m(n-m)`` binomial polynomial."""
    if m < 0 or m > n:
        return ()
    if m == 0 or m == n:
        return (1,)
    upper = _gauss_coeffs(n - 1, m)
    lower = _gauss_coeffs(n - 1, m - 1)
    out = [0] * (m * (n - m) + 1)
    for i, c in enumerate(upper):
        out[i + m] += c
    for i, c in enumerate(lower):
        out[i] += c
    return tuple(out)


def gauss_binomial(n: int, m: int, trunc: int | None = None) -> Series:
    """The base-``Q`` binomial coefficient as a polynomial in ``Q = abcd``."""
    return Series(
        FOUR_PARAM,
        {(i, i, i, i): c for i, c in enumerate(_gauss_coeffs(n, m)) if c},
        trunc,
    )


def check_qbinomial_recurrences(n_max: int) -> CheckReport:
    """Both one-step recurrences, symmetry, and the quotient product form."""
    failures: list[str] = []
    checks = 0

    def expect(label: str, lhs: Series, rhs: Series) -> None:
        nonlocal checks
        checks += 1
        cmp = lhs.equal_to(rhs)
        if not cmp.equal:
            failures.append(f"{label}: at {cmp.exps} got {cmp.left} != {cmp.right}")

    for n in range(1, n_max + 1):
        for m in range(n + 1):
            val = gauss_binomial(n, m)
            expect(
                f"[{n},{m}] shift-lower",
                val,
                q_monomial(m) * gauss_binomial(n - 1, m) + gauss_binomial(n - 1, m - 1),
            )
            expect(
                f"[{n},{m}] shift-upper",
                val,
                gauss_binomial(n - 1, m) + q_monomial(n - m) * gauss_binomial(n - 1, m - 1),
            )
            expect(f"[{n},{m}] symmetry", val, gauss_binomial(n, n - m))
            # Quotient form: a product of m factors over the m-factor base product.
            t = 4 * m * (n - m)
            num = pochhammer_finite(q_monomial(n - m + 1), q_monomial(1), m, None)
            den_inv = pochhammer_inverse(q_monomial(1), q_monomial(1), m, t)
            expect(f"[{n},{m}] quotient-form", num.truncate(t) * den_inv, val.truncate(t))
    return CheckReport("qbinomial-recurrences", not failures, checks, tuple(failures))


def _as_monomial(p: object, what: str) -> Series:
    """Coerce an exponent tuple to a unit monomial; pass signed monomials through."""
    if isinstance(p, tuple):
        p = Series.monomial(FOUR_PARAM, 1, p)
    if not isinstance(p, Series) or len(p.terms) != 1:
        raise DomainError(f"{what} must be a single monomial")
    if p.trunc is not None:
        raise DomainError(f"{what} must be exact (untruncated)")
    return p


def check_qbinomial_theorem(
    n_max: int, z: Series | tuple[int, int, int, int], trunc: int | None = None
) -> CheckReport:
    """Finite binomial expansion: the n-factor product of ``1 + z*Q^i`` equals
    the sum over k of ``z^k * Q^(k(k-1)/2)`` times the base-Q binomial."""
    z = _as_monomial(z, "z")
    if z.min_deg < 1:
        raise DomainError("z must have positive degree")
    failures: list[str] = []
    checks = 0
    for n in range(n_max + 1):
        lhs = pochhammer_finite(-z, q_monomial(1), n, None)
        rhs = Series.zero(FOUR_PARAM)
        for k in range(n + 1):
            rhs = rhs + (z ** k) * q_monomial(k * (k - 1) // 2) * gauss_binomial(n, k)
        if trunc is not None:
            lhs = lhs.truncate(trunc)
            rhs = rhs.truncate(trunc)
        checks += 1
        cmp = lhs.equal_to(rhs)
        if not cmp.equal:
            failures.append(f"n={n}: at {cmp.exps} got {cmp.left} != {cmp.right}")
    return CheckReport(
        f"qbinomial-theorem[z={z.to_string()}]", not failures, checks, tuple(failures)
    )


def _monomial_parts(s: Series, what: str) -> tuple[int, tuple[int, ...]]:
    if not isinstance(s, Series) or len(s.terms) != 1:
        raise DomainError(f"{what} must be a single monomial")
    ((exps, coeff),) = s.terms.items()
    return coeff, exps


def _monomial_div(num: Series, den: Series, what: str) -> Series:
    nc, ne = _monomial_parts(num, what)
    dc, de = _monomial_parts(den, what)
    if nc % dc != 0:
        raise DomainError(f"{what}: coefficient division is not exact")
    return Series.monomial(FOUR_PARAM, nc // dc, tuple(x - y for x, y in zip(ne, de)))


def _require_positive_degree(s: Series, what: str) -> None:
    if s.min_deg < 1:
        raise DomainError(f"{what} must have positive degree, got {s.min_deg}")


def _param_name(p: object) -> str:
    return p.to_string() if isinstance(p, Series) else repr(p)


def check_q_gauss(a_param: object, b_param: object, c_param: object, trunc: int) -> CheckReport:
    """Second-parameter summation check with base ``Q = abcd``.

    Compares ``sum_n (a;Q)_n (b;Q)_n / ((Q;Q)_n (c;Q)_n) * (c/(ab))^n`` with
    ``(c/a;Q)_inf (c/b;Q)_inf / ((c;Q)_inf (c/(ab);Q)_inf)``; passing
    :data:`A_INFINITY` for the first parameter takes the limit, where each
    numerator term degenerates to ``(-1)^n Q^(n(n-1)/2) (c/b)^n (b;Q)_n`` and
    the product side to ``(c/b;Q)_inf / (c;Q)_inf``.

    Parameters are signed monomials; classical ``(-x; Q)`` factors are
    expressed by passing the monomial ``-x``.
    """
    if trunc is None or trunc < 0:
        raise DomainError("a finite nonnegative truncation is required")
    base = q_monomial(1)
    b_param = _as_monomial(b_param, "b")
    c_param = _as_monomial(c_param, "c")
    _require_positive_degree(c_param, "c")

    if a_param is A_INFINITY:
        ratio_cb = _monomial_div(c_param, b_param, "c/b")
        _require_positive_degree(ratio_cb, "c/b")
        rhs_num = [ratio_cb]
        rhs_den = [c_param]

        def numerator(n: int) -> Series:
            pref = q_monomial(n * (n - 1) // 2).scale(-1 if n % 2 else 1)
            return pochhammer_finite(b_param, base, n, None) * pref * (ratio_cb ** n)

    else:
        a_param = _as_monomial(a_param, "a")
        ratio = _monomial_div(c_param, a_param * b_param, "c/(ab)")
        ratio_ca = _monomial_div(c_param, a_param, "c/a")
        ratio_cb = _monomial_div(c_param, b_param, "c/b")
        for s, what in ((ratio, "c/(ab)"), (ratio_ca, "c/a"), (ratio_cb, "c/b")):
            _require_positive_degree(s, what)
        rhs_num = [ratio_ca, ratio_cb]
        rhs_den = [c_param, ratio]

        def numerator(n: int) -> Series:
            return (
                pochhammer_finite(a_param, base, n, None)
                * pochhammer_finite(b_param, base, n, None)
                * (ratio ** n)
            )

    # The denominators (Q;Q)_n (c;Q)_n gain one geometric factor each per step.
    c_coeff, c_exps = _monomial_parts(c_param, "c")
    lhs = Series.zero(FOUR_PARAM, trunc)
    inv_qq = Series.one(FOUR_PARAM, trunc)
    inv_cc = Series.one(FOUR_PARAM, trunc)
    n = 0
    while True:
        poly = numerator(n)
        if poly.min_deg > trunc:
            break
        lhs = lhs + poly.truncate(trunc) * inv_qq * inv_cc
        inv_qq = inv_qq * Series.geometric(FOUR_PARAM, 1, (n + 1,) * 4, trunc)
        inv_cc = inv_cc * Series.geometric(FOUR_PARAM, c_coeff, tuple(e + n for e in c_exps), trunc)
        n += 1

    rhs = Series.one(FOUR_PARAM, trunc)
    for arg in rhs_num:
        rhs = rhs * pochhammer_infinite(arg, base, trunc)
    for arg in rhs_den:
        rhs = rhs * pochhammer_inverse(arg, base, None, trunc)

    name = f"q-gauss[a={_param_name(a_param)}; b={_param_name(b_param)}; c={_param_name(c_param)}]"
    cmp = lhs.equal_to(rhs)
    failures: tuple[str, ...] = ()
    if not cmp.equal:
        failures = (f"at {cmp.exps}: sum side {cmp.left} != product side {cmp.right}",)
    return CheckReport(name, cmp.equal, 1, failures)
