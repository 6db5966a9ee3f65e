"""Pochhammer products and classical summation checks, in exact arithmetic.

Everything here lives in the four-variable ring with base ``Q = abcd`` (or in
whatever ring the caller's argument series use, for the finite products).
``pochhammer_finite(x, Q, n)`` is the product ``(1-x)(1-xQ)...(1-xQ^{n-1})``,
so the classical ``(x; Q)_n`` with a sign goes in through the argument.
Every Pochhammer product is one :class:`PochFactor`, whose finite products are
grown one binomial at a time by :func:`running_product`; a truncated infinite
product of factors is one :meth:`Series.times_run` over their binomials,
largest first (:func:`truncated_infinite_product`).  A sum of Pochhammer
quotients ``sum_n P_n / (delta_0 ... delta_n)`` has one forward pass,
:func:`sum_levels`, which steps the numerator polynomials ``P_n`` and yields
each with its divisor binomials ``delta_n``, and one Horner run,
:func:`horner_sum`, ``S = (P_0 + (P_1 + (...) / delta_2) / delta_1) /
delta_0`` in one kernel run from the top level down.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .reporting import CheckReport
from .series import FOUR_PARAM, PrecisionLoss, Series, SeriesError, SeriesRing

_Q = (1, 1, 1, 1)


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


def q_monomial(power: int) -> Series:
    """``Q^power`` where ``Q = abcd``."""
    return Series.monomial(FOUR_PARAM, 1, (power,) * 4)


class PochFactor(NamedTuple):
    """``prod_i (1 - sign * arg * base^i)``, or its inverse when ``inverted``.

    In a sum ``count = (alpha, beta)`` gives the ``alpha*n + beta`` factors of
    the ``n``-th summand; in a product ``count`` is None and the product is
    infinite.
    """

    sign: int
    arg_exps: tuple[int, ...]
    base_exps: tuple[int, ...]
    count: tuple[int, int] | None = None
    inverted: bool = False

    def argument(self, i: int) -> tuple[int, ...]:
        """The exponents ``arg + i*base`` of binomial ``i``."""
        return tuple(a + i * b for a, b in zip(self.arg_exps, self.base_exps))

    def check(self, ring: SeriesRing, trunc: int | None) -> None:
        """Refuse an exponent tuple whose length is not the ring's, a base of
        degree < 1, an inverted product without a truncation, and a truncated
        product whose argument has degree < 1."""
        if not len(self.arg_exps) == len(self.base_exps) == ring.nvars:
            raise ValueError(f"exponent tuples must have {ring.nvars} entries, one per variable")
        if ring.degree(self.base_exps) < 1:
            raise ValueError("base must have positive degree")
        if self.inverted and trunc is None:
            raise PrecisionLoss("an inverted product is an infinite series")
        if trunc is not None and ring.degree(self.arg_exps) < 1:
            raise NonConvergent("a truncated product needs an argument of positive degree")

    def binomials(self, n: int) -> list[tuple[int, ...]]:
        """The arguments of the binomials summand ``n`` has and summand ``n -
        1`` lacks: ``i < beta`` for ``n = 0``, else ``alpha*(n-1) + beta <= i
        < alpha*n + beta``."""
        alpha, beta = self.count  # type: ignore[misc]
        start = 0 if n == 0 else alpha * (n - 1) + beta
        return [self.argument(i) for i in range(start, alpha * n + beta)]


def sum_levels(
    start: Series,
    ratio: Callable[[int], Series],
    factors: Sequence[PochFactor],
    trunc: int,
) -> Iterator[tuple[Series, list[tuple]]]:
    """The forward pass of ``sum_n T_n``: yield the Horner levels ``(P_n,
    delta_n)`` up to the first zero ``P_n``, ``delta_n`` the ``(sign, exps)``
    of the denominator binomials new in summand ``n``.

    ``T_n = m_n * prod_f f_(alpha*n + beta) = P_n / (delta_0 ... delta_n)``,
    ``m_0 = start`` and ``m_(n+1) = m_n * ratio(n)`` exact monomials, ``f_k``
    the product of factor ``f``'s first ``k`` binomials (or its inverse).
    ``P_0`` is truncated at ``trunc`` and ``P_(n+1) = P_n * r_n``, the exact
    step polynomial ``r_n`` being ``ratio(n)`` times the new numerator
    binomials, in one product since a numerator binomial may have negative
    degree.  A step polynomial with a term of negative degree raises
    :class:`PrecisionLoss`; the others only raise degree, so no later summand
    can come back below the truncation.
    """
    numerators = [f for f in factors if not f.inverted]
    denominators = [f for f in factors if f.inverted]

    def numerator(n: int, monomial: Series) -> Series:
        """The monomial times the numerator binomials new in summand ``n``, exactly."""
        return monomial.times_run(
            [("times", f.sign, exps) for f in numerators for exps in f.binomials(n)]
        )

    poly = numerator(0, start).truncate(trunc)
    for n in count():
        if poly.is_zero():
            return
        yield poly, [(f.sign, exps) for f in denominators for exps in f.binomials(n)]
        step = numerator(n + 1, ratio(n))
        if step.min_deg < 0:
            raise PrecisionLoss(f"step polynomial {step.to_string()} has a negative-degree term")
        poly = poly * step


def horner_sum(ring: SeriesRing, trunc: int, levels: Sequence[tuple[Series, list]]) -> Series:
    """``sum_k P_k / (delta_0 ... delta_k)`` to order ``trunc`` in ``ring``
    over the ``levels`` ``(P_k, delta_k)``, ``delta_k`` a list of ``(sign,
    exps)`` binomials ``1 - sign * x^exps``; zero for no level.

    One :meth:`Series.times_run` in Horner form, ``(P_0 + (P_1 + (...) /
    delta_1) / delta_0``: from the top level down, add ``P_k`` and divide by
    ``delta_k``.  Each ``1 - m`` with ``m`` of positive degree has an inverse
    of constant term 1 and terms of positive degree only, so ``P_k``
    truncated at ``trunc`` gives every level exactly to there.
    """
    run: list[tuple] = []
    for poly, divisors in reversed(levels):
        run.append(("add", poly))
        run += [("over", sign, exps) for sign, exps in divisors]
    return Series.zero(ring, trunc).times_run(run)


def running_product(ring: SeriesRing, factor: PochFactor, trunc: int | None) -> Iterator[Series]:
    """Yield the product of ``factor``'s first ``k`` binomials, or its inverse
    when the factor is inverted, for ``k = 0, 1, 2, ...``; each step
    multiplies or divides the previous product by one binomial with
    :meth:`Series.times_factor`.

    Exact runs (``trunc`` None) allow an argument of negative degree; inverted
    runs must be truncated.  A truncated run needs an argument of positive
    degree, so binomial ``i`` has degree above ``i``.  Once the next binomial
    lies above ``trunc``, the product so far is the whole infinite product to
    that order, and is repeated: every later index reads it.  The factor is
    checked (:meth:`PochFactor.check`) when the first product is drawn.
    """
    factor.check(ring, trunc)
    prod = Series.one(ring, trunc)
    for i in count():
        exps = factor.argument(i)
        if trunc is not None and ring.degree(exps) > trunc:
            break
        yield prod
        prod = prod.times_factor(factor.sign, exps, factor.inverted)
    # This binomial and every later one only touch degrees above trunc.
    yield from repeat(prod)


def truncated_infinite_product(
    ring: SeriesRing, factors: Iterable[PochFactor], trunc: int
) -> Series:
    """The product of the infinite ``factors`` to order ``trunc``.  Every
    factor is checked (:meth:`PochFactor.check`), and every binomial of degree
    <= ``trunc`` is applied by :meth:`Series.times_factor`, largest degree
    first (ties in factor order): the order changes no coefficient, but keeps
    the product as sparse as the terms that can still reach the truncation, so
    the work follows the output."""
    if trunc is None or trunc < 0:
        raise ValueError(f"trunc must be nonnegative, got {trunc}")
    steps = []
    for f in factors:
        f.check(ring, trunc)
        for i in count():
            exps = f.argument(i)
            if (deg := ring.degree(exps)) > trunc:
                break
            steps.append((deg, f.sign, exps, f.inverted))
    steps.sort(key=lambda step: step[0], reverse=True)  # stable: ties keep factor order
    # The bound equals that of one running product per factor multiplied into
    # ``Series.one``.  ``times_factor`` adds to its operand's bound an amount
    # fixed by the binomial and ``trunc`` alone: ``max |e_i|`` for a plain
    # binomial of degree <= trunc (0 for sign 0), ``(trunc // deg) * max
    # |e_i|`` for an inverted one.  Each run applies its binomials of degree
    # <= trunc from bound 0, and ``__mul__`` adds the run bounds to the 0 of
    # ``Series.one``: both sum the same amounts over the same binomials.  The
    # amounts are nonnegative, so no partial sum exceeds the total, and both
    # raise ExponentOverflow alike.
    run = [("over" if inverted else "times", sign, exps) for _, sign, exps, inverted in steps]
    return Series.one(ring, trunc).times_run(run)


def _monomial_parts(s: object, error: Exception) -> tuple[int, tuple[int, ...]]:
    """``(coeff, exps)`` of a series with exactly one term, read off its one
    bucket; ``error`` is raised for anything else."""
    if isinstance(s, Series) and len(s.buckets) == 1:
        (bucket,) = s.buckets.values()
        if len(bucket) == 1:
            ((key, coeff),) = bucket.items()
            return coeff, s.ring.unpack(key)
    raise error


def _poch_data(arg: Series, base: Series) -> PochFactor:
    """The factor of a monomial argument and a unit monomial base."""
    error = ValueError("argument and base must be monomials, the base with coefficient 1")
    (sign, arg_exps), (coeff, base_exps) = _monomial_parts(arg, error), _monomial_parts(base, error)
    if coeff != 1:
        raise error
    return PochFactor(sign, arg_exps, base_exps)


def pochhammer_finite(arg: Series, base: Series, n: int) -> Series:
    """``(1 - arg)(1 - arg*base) ... (1 - arg*base^(n-1))``, exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return next(islice(running_product(arg.ring, _poch_data(arg, base), None), n, None))


def pochhammer_infinite(arg: Series, base: Series, trunc: int) -> Series:
    """The infinite product ``prod_i (1 - arg*base^i)`` to order ``trunc``."""
    return truncated_infinite_product(arg.ring, [_poch_data(arg, base)], trunc)


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


@lru_cache(maxsize=None)
def gauss_binomial(n: int, m: int) -> Series:
    """The base-``Q`` binomial coefficient as a polynomial in ``Q = abcd``.

    Memoised: a series is never changed once built, so callers share it."""
    return Series(
        FOUR_PARAM,
        {(i, i, i, i): c for i, c in enumerate(_gauss_coeffs(n, m)) if c},
        None,
    )


def check_qbinomial_recurrences(n_max: int) -> CheckReport:
    """Both one-step recurrences, symmetry, and the quotient product form."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    failures: list[str] = []
    checks = 0

    def expect(label: str, lhs: Series, rhs: Series) -> None:
        nonlocal checks
        checks += 1
        cmp = lhs.equal_to(rhs)
        if not cmp.equal:
            failures.append(f"{label}: at {cmp.exps} got {cmp.left} != {cmp.right}")

    # (Q^k; Q)_m, k = n - m + 1, from one exact run per k; k = 1 gives (Q; Q)_m.
    runs = {}
    for k in range(1, n_max + 2):
        run = running_product(FOUR_PARAM, PochFactor(1, (k,) * 4, _Q), None)
        runs[k] = list(islice(run, n_max + 2 - k))
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
            # Quotient form times its denominator: (Q^k; Q)_m = [n, m] (Q; Q)_m.
            t = 4 * m * (n - m)
            num, den = runs[n - m + 1][m], runs[1][m]
            expect(f"[{n},{m}] quotient-form", num.truncate(t), val.truncate(t) * den.truncate(t))
    return CheckReport("qbinomial-recurrences", not failures, checks, tuple(failures))


def _as_monomial(p: object, what: str) -> Series:
    """Coerce an exponent tuple to a unit monomial; pass signed monomials through."""
    if isinstance(p, tuple):
        p = Series.monomial(FOUR_PARAM, 1, p)
    _monomial_parts(p, DomainError(f"{what} must be a single monomial"))
    if p.trunc is not None:
        raise DomainError(f"{what} must be exact (untruncated)")
    return p


def check_qbinomial_theorem(n_max: int, z: Series | tuple[int, int, int, int]) -> CheckReport:
    """Finite binomial expansion: the n-factor product of ``1 + z*Q^i`` equals
    the sum over k of ``z^k * Q^(k(k-1)/2)`` times the base-Q binomial."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    z = _as_monomial(z, "z")
    _require_positive_degree(z, "z")
    failures: list[str] = []
    checks = 0
    minus_z = _monomial_parts(-z, DomainError("z must be a single monomial"))
    products = running_product(FOUR_PARAM, PochFactor(*minus_z, _Q), None)
    for n in range(n_max + 1):
        lhs = next(products)
        rhs = Series.zero(FOUR_PARAM)
        z_power = Series.one(FOUR_PARAM)  # z^k
        for k in range(n + 1):
            rhs = rhs + z_power * q_monomial(k * (k - 1) // 2) * gauss_binomial(n, k)
            z_power = z_power * z
        checks += 1
        cmp = lhs.equal_to(rhs)
        if not cmp.equal:
            failures.append(f"n={n}: at {cmp.exps} got {cmp.left} != {cmp.right}")
    return CheckReport(
        f"qbinomial-theorem[z={z.to_string()}]", not failures, checks, tuple(failures)
    )


def _monomial_div(num: Series, den: Series, what: str) -> Series:
    error = DomainError(f"{what} must be a single monomial")
    (nc, ne), (dc, de) = _monomial_parts(num, error), _monomial_parts(den, error)
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
    b_param = _as_monomial(b_param, "b")
    c_param = _as_monomial(c_param, "c")
    _require_positive_degree(c_param, "c")

    if a_param is A_INFINITY:
        ratio_cb = _monomial_div(c_param, b_param, "c/b")
        _require_positive_degree(ratio_cb, "c/b")
        sum_args, step, pairs = [b_param], -ratio_cb, 1
        rhs_args = [(ratio_cb, False), (c_param, True)]
    else:
        a_param = _as_monomial(a_param, "a")
        ratio = _monomial_div(c_param, a_param * b_param, "c/(ab)")
        ratio_ca = _monomial_div(c_param, a_param, "c/a")
        ratio_cb = _monomial_div(c_param, b_param, "c/b")
        for s, what in ((ratio, "c/(ab)"), (ratio_ca, "c/a"), (ratio_cb, "c/b")):
            _require_positive_degree(s, what)
        sum_args, step, pairs = [a_param, b_param], ratio, 0
        rhs_args = [(ratio_ca, False), (ratio_cb, False), (c_param, True), (ratio, True)]

    # Summand n+1 is summand n times step * Q^(pairs*n) * prod (1 - p*Q^n),
    # over (1 - Q^(n+1)) (1 - c*Q^n).  For n = 0 that step polynomial's terms
    # are c/(ab), c/a, c/b and c (-c/b and c in the limit), each checked above
    # to have positive degree, and its degrees only grow with n: the forward
    # pass's precondition fails with a DomainError here, never mid-sum.
    def poch(p: Series, what: str, **kwargs: object) -> PochFactor:
        parts = _monomial_parts(p, DomainError(f"{what} must be a single monomial"))
        return PochFactor(*parts, _Q, **kwargs)  # (p; Q)

    factors = [poch(p, "a, b", count=(1, 0)) for p in sum_args]
    factors.append(PochFactor(1, _Q, _Q, (1, 0), inverted=True))
    factors.append(poch(c_param, "c", count=(1, 0), inverted=True))
    levels = list(sum_levels(
        Series.one(FOUR_PARAM), lambda n: step * q_monomial(pairs * n), factors, trunc
    ))
    lhs = horner_sum(FOUR_PARAM, trunc, levels)

    rhs_factors = [poch(arg, "ratio", inverted=inverted) for arg, inverted in rhs_args]
    rhs = truncated_infinite_product(FOUR_PARAM, rhs_factors, trunc)

    name = f"q-gauss[a={_param_name(a_param)}; b={_param_name(b_param)}; c={_param_name(c_param)}]"
    cmp = lhs.equal_to(rhs)
    failures: tuple[str, ...] = ()
    if not cmp.equal:
        failures = (f"at {cmp.exps}: sum side {cmp.left} != product side {cmp.right}",)
    return CheckReport(name, cmp.equal, 1, failures)
