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

from .reporting import CheckReport, build_report
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


def _mismatch(label: str, lhs: Series, rhs: Series) -> tuple[str, ...]:
    """The failure line of the check ``lhs == rhs``; empty when it holds."""
    cmp = lhs.equal_to(rhs)
    return () if cmp.equal else (f"{label}: at {cmp.exps} got {cmp.left} != {cmp.right}",)


def check_qbinomial_recurrences(n_max: int) -> CheckReport:
    """Both one-step recurrences, symmetry, and the quotient product form."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    def outcomes() -> Iterator[Sequence[str]]:
        # (Q^k; Q)_m, k = n - m + 1, from one exact run per k; k = 1 gives (Q; Q)_m.
        runs = {}
        for k in range(1, n_max + 2):
            run = running_product(FOUR_PARAM, PochFactor(1, (k,) * 4, _Q), None)
            runs[k] = list(islice(run, n_max + 2 - k))
        for n in range(1, n_max + 1):
            for m in range(n + 1):
                val = gauss_binomial(n, m)
                upper, lower = gauss_binomial(n - 1, m), gauss_binomial(n - 1, m - 1)
                yield _mismatch(f"[{n},{m}] shift-lower", val, q_monomial(m) * upper + lower)
                yield _mismatch(f"[{n},{m}] shift-upper", val, upper + q_monomial(n - m) * lower)
                yield _mismatch(f"[{n},{m}] symmetry", val, gauss_binomial(n, n - m))
                # Quotient form times its denominator: (Q^k; Q)_m = [n, m] (Q; Q)_m.
                t = 4 * m * (n - m)
                num, den = runs[n - m + 1][m].truncate(t), runs[1][m].truncate(t)
                yield _mismatch(f"[{n},{m}] quotient-form", num, val.truncate(t) * den)

    return build_report("qbinomial-recurrences", outcomes(), {"n_max": n_max})


#: A signed monomial ``(coeff, exps)``: ``coeff * a^e0 b^e1 c^e2 d^e3``.
Monomial = tuple[int, tuple[int, ...]]


def _monomial(p: object, what: str) -> Monomial:
    """``p``, refused unless it pairs a nonzero int with four int exponents."""
    if (
        isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], int) and p[0] != 0
        and isinstance(p[1], tuple) and len(p[1]) == 4 and all(isinstance(e, int) for e in p[1])
    ):
        return p  # type: ignore[return-value]
    raise DomainError(f"{what} must be a signed monomial (coeff, exps), got {p!r}")


def _positive(p: Monomial, what: str) -> Monomial:
    """``p``, refused unless it has positive degree."""
    if (deg := FOUR_PARAM.degree(p[1])) < 1:
        raise DomainError(f"{what} must have positive degree, got {deg}")
    return p


def _ratio(num: Monomial, den: Monomial, what: str) -> Monomial:
    """``num / den``, refused unless the coefficients divide exactly and the
    quotient has positive degree."""
    (nc, ne), (dc, de) = num, den
    if nc % dc:
        raise DomainError(f"{what}: coefficient division is not exact")
    return _positive((nc // dc, tuple(x - y for x, y in zip(ne, de))), what)


def _name(p: Monomial) -> str:
    """``p`` written as its one-term series prints."""
    return Series.monomial(FOUR_PARAM, *p).to_string()


def check_qbinomial_theorem(n_max: int, z: Monomial) -> CheckReport:
    """Finite binomial expansion: the n-factor product of ``1 + z*Q^i`` equals
    the sum over k of ``z^k * Q^(k(k-1)/2)`` times the base-Q binomial, for a
    signed monomial ``z = (coeff, exps)`` of positive degree."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeff, exps = _positive(_monomial(z, "z"), "z")

    def outcomes() -> Iterator[Sequence[str]]:
        products = running_product(FOUR_PARAM, PochFactor(-coeff, exps, _Q), None)
        for n in range(n_max + 1):
            rhs = Series.zero(FOUR_PARAM)
            for k in range(n + 1):
                shift = k * (k - 1) // 2
                z_k = Series.monomial(FOUR_PARAM, coeff**k, tuple(k * e + shift for e in exps))
                rhs = rhs + z_k * gauss_binomial(n, k)  # z^k Q^(k(k-1)/2) [n, k]
            yield _mismatch(f"n={n}", next(products), rhs)

    return build_report(f"qbinomial-theorem[z={_name(z)}]", outcomes(), {"n_max": n_max})


def check_q_gauss(a: Monomial | _AInfinity, b: Monomial, c: Monomial, trunc: int) -> CheckReport:
    """Second-parameter summation check with base ``Q = abcd``.

    Compares ``sum_n (a;Q)_n (b;Q)_n / ((Q;Q)_n (c;Q)_n) * (c/(ab))^n`` with
    ``(c/a;Q)_inf (c/b;Q)_inf / ((c;Q)_inf (c/(ab);Q)_inf)``; passing
    :data:`A_INFINITY` for ``a`` takes the limit, where each numerator term
    degenerates to ``(-1)^n Q^(n(n-1)/2) (c/b)^n (b;Q)_n`` and the product
    side to ``(c/b;Q)_inf / (c;Q)_inf``.

    Each parameter is a signed monomial ``(coeff, exps)``, the pair a
    :class:`PochFactor` stores; classical ``(-x; Q)`` factors are expressed
    by passing ``-x``, as ``(-1, (0, 1, 0, 0))`` for ``-b``.  ``c`` and the
    ratios ``c/(ab)``, ``c/a`` and ``c/b`` must have positive degree, and
    each ratio's coefficient must divide exactly; otherwise
    :class:`DomainError` is raised before any check runs.
    """
    if trunc is None or trunc < 0:
        raise DomainError("a finite nonnegative truncation is required")
    b, c = _monomial(b, "b"), _positive(_monomial(c, "c"), "c")

    if a is A_INFINITY:
        ratio_cb = _ratio(c, b, "c/b")
        sum_args, step, pairs = [b], (-ratio_cb[0], ratio_cb[1]), 1
        rhs_args = [(ratio_cb, False), (c, True)]
        a_name = repr(a)
    else:
        a = _monomial(a, "a")
        ratio = _ratio(c, (a[0] * b[0], tuple(x + y for x, y in zip(a[1], b[1]))), "c/(ab)")
        ratio_ca, ratio_cb = _ratio(c, a, "c/a"), _ratio(c, b, "c/b")
        sum_args, step, pairs = [a, b], ratio, 0
        rhs_args = [(ratio_ca, False), (ratio_cb, False), (c, True), (ratio, True)]
        a_name = _name(a)

    # Summand n+1 is summand n times step * Q^(pairs*n) * prod (1 - p*Q^n),
    # over (1 - Q^(n+1)) (1 - c*Q^n).  For n = 0 that step polynomial's terms
    # are c/(ab), c/a, c/b and c (-c/b and c in the limit), each checked above
    # to have positive degree, and its degrees only grow with n: the forward
    # pass's precondition fails with a DomainError here, never mid-sum.
    factors = [PochFactor(*p, _Q, (1, 0)) for p in sum_args]
    factors.append(PochFactor(1, _Q, _Q, (1, 0), inverted=True))
    factors.append(PochFactor(*c, _Q, (1, 0), inverted=True))
    rhs_factors = [PochFactor(*p, _Q, inverted=inverted) for p, inverted in rhs_args]
    step_coeff, step_exps = step

    def ratio_at(n: int) -> Series:
        return Series.monomial(FOUR_PARAM, step_coeff, tuple(e + pairs * n for e in step_exps))

    def outcomes() -> Iterator[Sequence[str]]:
        levels = list(sum_levels(Series.one(FOUR_PARAM), ratio_at, factors, trunc))
        cmp = horner_sum(FOUR_PARAM, trunc, levels).equal_to(
            truncated_infinite_product(FOUR_PARAM, rhs_factors, trunc)
        )
        yield () if cmp.equal else (
            f"at {cmp.exps}: sum side {cmp.left} != product side {cmp.right}",
        )

    return build_report(f"q-gauss[a={a_name}; b={_name(b)}; c={_name(c)}]", outcomes())
