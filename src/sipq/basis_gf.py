"""Weight polynomials of basis members, tabulated by (length, largest part).

Each of the four bases gets its table three independent ways: direct
enumeration of members, a two-row-stripping recurrence with explicit initial
values, and a closed form built from base-``Q`` binomial coefficients.  The
three must agree exactly; :func:`cross_check_tables` asserts it entry by
entry.  Everything is exact (no truncation), and although some closed forms
carry inverse powers of ``c`` or ``d``, every fully expanded entry has only
nonnegative exponents because it is a sum of weights of actual partitions.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import PartitionClass, basis_weight_sums
from .qseries import gauss_binomial, q_monomial
from .reporting import CheckReport
from .series import FOUR_PARAM, Series

_ZERO = Series.zero(FOUR_PARAM)
_ONE = Series.one(FOUR_PARAM)
_COLUMN_ROWS = 16  # the least length an enumerated column is summed through


def _require_entry(cls: PartitionClass, n: int, h: int) -> None:
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")
    if n < 0 or h < 0:
        raise ValueError("length and largest must be nonnegative")


def _mono(coeff: int, a: int = 0, b: int = 0, c: int = 0, d: int = 0) -> Series:
    return Series.monomial(FOUR_PARAM, coeff, (a, b, c, d))


def _c2(m: int) -> int:
    return m * (m - 1) // 2


def table_enumerated(cls: PartitionClass, n: int, h: int) -> Series:
    """Sum of the weights of basis members with length ``n``, largest ``h``,
    read off a column, so that one pass serves every length of a grid."""
    _require_entry(cls, n, h)
    return _column(cls, h, max(n, _COLUMN_ROWS))[n]


@lru_cache(maxsize=None)
def _column(cls: PartitionClass, h: int, rows: int) -> list[Series]:
    """Entries ``(0, h) .. (rows, h)``: the direct sum over members from the top
    part ``h``, no partition built, at a weight bound, ``rows * h``, that cuts none."""
    return basis_weight_sums(cls, rows, rows * h, largest=h)


def table_recurrence(cls: PartitionClass, n: int, h: int) -> Series:
    """The same table from two-row-stripping recurrences and initial values.

    Stripping the two largest rows of a basis member leaves a basis member of
    the same family; each family's rule records what those two rows carry.
    The short lengths that the stripping argument cannot reach are hardwired.
    """
    _require_entry(cls, n, h)
    return _recurrence(cls, n, h)


@lru_cache(maxsize=None)
def _recurrence(cls: PartitionClass, n: int, h: int) -> Series:
    """:func:`table_recurrence` for a basis tag; the stripping steps reach
    ``h - 2`` and ``h - 4``, and a negative largest part gives zero."""
    if n == 0:
        return _ONE if h == 0 else _ZERO
    if h <= 0:
        return _ZERO
    if cls is PartitionClass.BASIS_G1:
        if n == 1:
            return _mono(1, 1) if h == 1 else (_mono(1, 1, 1) if h == 2 else _ZERO)
        if h % 2 == 0:
            return _mono(1, 0, 1) * _recurrence(cls, n, h - 1)
        if n == 2 and h == 3:
            return _mono(1, 2, 1, 1, 1)
        half = (h + 1) // 2
        return _mono(1, half, half - 1, half - 1, half - 1) * _recurrence(
            cls, n - 2, h - 2
        ) + _mono(1, half, half, half - 1, half - 1) * _recurrence(cls, n - 2, h - 4)
    if cls is PartitionClass.BASIS_G2:
        if h % 2:
            return _ZERO
        if n == 1:
            return _mono(1, 1, 1) if h == 2 else _ZERO
        half = h // 2
        return _mono(1, half, half, half, half - 1) * _recurrence(
            cls, n - 2, h - 2
        ) + _mono(1, half, half, half - 1, half - 1) * _recurrence(cls, n - 2, h - 4)
    if cls is PartitionClass.BASIS_P1:
        if n == 1:
            return _mono(1, 1) if h == 1 else (_mono(1, 1, 1) if h == 2 else _ZERO)
        if h % 2:
            return _mono(1, 1) * _recurrence(cls, n, h - 1)
        if n == 2 and h == 2:
            return q_monomial(1)
        half = h // 2
        return q_monomial(half) * (
            _recurrence(cls, n - 2, h) + _recurrence(cls, n - 2, h - 1)
        )
    if cls is PartitionClass.BASIS_P2:
        if h % 2:
            return _ZERO
        if n == 1:
            return _mono(1, 1, 1) if h == 2 else _ZERO
        if n == 2 and h == 2:
            return q_monomial(1) + _mono(1, 1, 1, 1)
        half = h // 2
        return q_monomial(half) * _recurrence(cls, n - 2, h) + _mono(
            1, half, half, half, half - 1
        ) * _recurrence(cls, n - 2, h - 2)
    raise ValueError(f"no recurrence for {cls}")


@lru_cache(maxsize=None)
def table_closed_form(cls: PartitionClass, n: int, h: int) -> Series:
    """The same table in closed form, one product per parity case of (n, h).

    The binomial factor is computed first; when it vanishes the whole entry
    is zero and the accompanying monomial (whose exponents may be negative in
    intermediate form) is never materialized.
    """
    _require_entry(cls, n, h)
    if n == 0:
        return _ONE if h == 0 else _ZERO
    if h <= 0:
        return _ZERO
    if cls is PartitionClass.BASIS_G1:
        if n % 2:
            k = (n + 1) // 2
            if h % 2:
                j = (h + 1) // 2
                gauss = gauss_binomial(k - 1, j - k)
                if gauss.is_zero():
                    return _ZERO
                e = _c2(k) + _c2(j - k + 1)
                return gauss * _mono(1, k + e, j - k + e, e, e)
            j = h // 2
            gauss = gauss_binomial(k - 1, j - k)
            if gauss.is_zero():
                return _ZERO
            e = _c2(k) + _c2(j - k + 1)
            return gauss * _mono(1, k + e, j - k + 1 + e, e, e)
        k = n // 2
        if h % 2:
            j = (h + 1) // 2
            gauss = gauss_binomial(k - 1, j - k - 1)
            if gauss.is_zero():
                return _ZERO
            e = _c2(k + 1) + _c2(j - k)
            return gauss * _mono(1, k + e, j - k - 1 + e, e, e)
        j = h // 2
        gauss = gauss_binomial(k - 1, j - k - 1)
        if gauss.is_zero():
            return _ZERO
        e = _c2(k + 1) + _c2(j - k)
        return gauss * _mono(1, k + e, j - k + e, e, e)
    if cls is PartitionClass.BASIS_G2:
        if h % 2:
            return _ZERO
        j = h // 2
        if n % 2:
            k = (n + 1) // 2
            gauss = gauss_binomial(k - 1, j - k)
            if gauss.is_zero():
                return _ZERO
            e = _c2(k + 1) + _c2(j - k + 1)
            return gauss * _mono(1, e, e, k - j - 1 + e, -k + e)
        k = n // 2
        gauss = gauss_binomial(k, j - k)
        if gauss.is_zero():
            return _ZERO
        e = _c2(k + 1) + _c2(j - k + 1)
        return gauss * _mono(1, e, e, k - j + e, -k + e)
    if cls is PartitionClass.BASIS_P1:
        if n == 1:
            return _mono(1, 1) if h == 1 else (_mono(1, 1, 1) if h == 2 else _ZERO)
        if n % 2 == 0:
            k = n // 2
            if h % 2 == 0:
                j = h // 2
                gauss = gauss_binomial(k - 1, j - 1)
                if gauss.is_zero():
                    return _ZERO
                e = _c2(j) + k
                return gauss * _mono(1, j - 1 + e, e, e, e)
            j = (h + 1) // 2
            gauss = gauss_binomial(k - 1, j - 2)
            if gauss.is_zero():
                return _ZERO
            e = _c2(j - 1) + k
            return gauss * _mono(1, j - 1 + e, e, e, e)
        k = (n - 1) // 2
        if h % 2 == 0:
            j = h // 2
            gauss = gauss_binomial(k - 1, j - 1)
            if gauss.is_zero():
                return _ZERO
            e = _c2(j) + k
            return gauss * (_ONE + _mono(1, 0, 1)) * _mono(1, j + e, e, e, e)
        j = (h + 1) // 2
        gauss = gauss_binomial(k - 1, j - 2)
        if gauss.is_zero():
            return _ZERO
        e = _c2(j - 1) + k
        return gauss * (_ONE + _mono(1, 0, 1)) * _mono(1, j + e, e, e, e)
    if cls is PartitionClass.BASIS_P2:
        if h % 2:
            return _ZERO
        j = h // 2
        if n % 2 == 0:
            k = n // 2
            gauss = gauss_binomial(k - 1, j - 1)
            if gauss.is_zero():
                return _ZERO
            e = _c2(j) + k
            return gauss * (_ONE + _mono(1, 0, 0, 0, -1)) * _mono(1, e, e, e, 1 - j + e)
        k = (n + 1) // 2
        gauss = gauss_binomial(k - 1, j - 1)
        if gauss.is_zero():
            return _ZERO
        e = _c2(j) + k - 1
        return gauss * _mono(1, 1 + e, 1 + e, e, 1 - j + e)
    raise ValueError(f"no closed form for {cls}")


_METHODS = (
    ("enumerated", table_enumerated),
    ("recurrence", table_recurrence),
    ("closed-form", table_closed_form),
)


def cross_check_tables(cls: PartitionClass, n_max: int, h_max: int) -> CheckReport:
    """Three-way agreement over the full (length, largest) grid.

    Beyond equality this asserts that every entry expands with nonnegative
    exponents only, that entries vanish for ``h > 2n`` and for an ``h`` the
    basis's rule refuses on row 1, and that ``B(n, 0) = 0`` for ``n >= 1``.
    """
    _require_entry(cls, n_max, h_max)
    (_, enumerated), *others = _METHODS
    failures: list[str] = []
    checks = 0
    for n in range(n_max + 1):
        for h in range(h_max + 1):
            checks += 1
            reference = enumerated(cls, n, h)
            for method, fn in others:
                cmp = fn(cls, n, h).equal_to(reference)
                if not cmp.equal:
                    failures.append(
                        f"n={n} h={h} {method}: at {cmp.exps} got {cmp.left},"
                        f" enumeration has {cmp.right}"
                    )
            if reference.has_negative_exponent():
                failures.append(f"n={n} h={h}: negative exponent in {reference!r}")
            must_vanish = h > 2 * n or (n >= 1 and h == 0) or not cls.rule.allows(1, h)
            if must_vanish and not reference.is_zero():
                failures.append(f"n={n} h={h}: expected empty support, got {reference!r}")
    return CheckReport(
        f"basis-tables[{cls.value}]", not failures, checks, tuple(failures)
    )
