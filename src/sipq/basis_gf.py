"""Weight polynomials of basis members, tabulated by (length, largest part).

Each of the four bases gets its table three independent ways: direct
enumeration of members, a two-row-stripping recurrence with explicit initial
values, and a closed form built from base-``Q`` binomial coefficients.  Each
method builds a whole grid, ``grid[n][h]`` for ``n <= n_max`` and ``h <=
h_max``, at the size asked for: the enumeration sums every entry in one
bottom-up skeleton pass per parity of the length, the recurrence fills its
grid in place from entries it has already filled, and the closed form computes
each entry on its own.  The three must agree exactly; :func:`cross_check_tables`
asserts it entry by entry.  Everything is exact (no truncation), and although
some closed forms carry inverse powers of ``c`` or ``d``, every fully expanded
entry has only nonnegative exponents because it is a sum of weights of actual
partitions.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .partitions import PartitionClass, basis_weight_grid
from .qseries import gauss_binomial, q_monomial
from .reporting import CheckReport, build_report
from .series import FOUR_PARAM, Series

_ZERO = Series.zero(FOUR_PARAM)
_ONE = Series.one(FOUR_PARAM)


def _require_grid(cls: PartitionClass, n_max: int, h_max: int) -> None:
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")
    if n_max < 0 or h_max < 0:
        raise ValueError("length and largest must be nonnegative")


def _mono(a: int = 0, b: int = 0, c: int = 0, d: int = 0) -> Series:
    return Series.monomial(FOUR_PARAM, 1, (a, b, c, d))


def _c2(m: int) -> int:
    return m * (m - 1) // 2


def table_enumerated(cls: PartitionClass, n_max: int, h_max: int) -> list[list[Series]]:
    """The grid of entries ``(n, h)``, ``n <= n_max`` and ``h <= h_max``: the
    sums of the weights of the basis members with length ``n`` and largest
    part ``h``, all read off one bottom-up skeleton pass per parity."""
    return basis_weight_grid(cls, n_max, h_max)


def table_recurrence(cls: PartitionClass, n_max: int, h_max: int) -> list[list[Series]]:
    """The same grid from two-row-stripping recurrences and initial values.

    Stripping the two largest rows of a basis member leaves a basis member of
    the same family; each family's rule records what those two rows carry.
    The short lengths that the stripping argument cannot reach are hardwired.
    The grid is filled in place, lengths ascending and then largest parts
    ascending, so every entry a step reads, of length ``n - 2`` or at ``(n, h
    - 1)``, is already there.
    """
    _require_grid(cls, n_max, h_max)
    grid: list[list[Series]] = []

    def at(n: int, h: int) -> Series:
        return grid[n][h] if h >= 0 else _ZERO

    for n in range(n_max + 1):
        grid.append([])
        for h in range(h_max + 1):
            grid[n].append(_recurrence(cls, n, h, at))
    return grid


def _recurrence(cls: PartitionClass, n: int, h: int, at: Callable[[int, int], Series]) -> Series:
    """:func:`table_recurrence`'s entry ``(n, h)`` for a basis tag, reading the
    filled entries through ``at``; the stripping steps reach ``h - 2`` and ``h
    - 4``, where ``at`` gives zero for a negative largest part."""
    if n == 0:
        return _ONE if h == 0 else _ZERO
    if h <= 0:
        return _ZERO
    if cls is PartitionClass.BASIS_G1:
        if n == 1:
            return _mono(1) if h == 1 else (_mono(1, 1) if h == 2 else _ZERO)
        if h % 2 == 0:
            return _mono(0, 1) * at(n, h - 1)
        if n == 2 and h == 3:
            return _mono(2, 1, 1, 1)
        half = (h + 1) // 2
        via_h2 = _mono(half, half - 1, half - 1, half - 1) * at(n - 2, h - 2)
        return via_h2 + _mono(half, half, half - 1, half - 1) * at(n - 2, h - 4)
    if cls is PartitionClass.BASIS_G2:
        if h % 2:
            return _ZERO
        if n == 1:
            return _mono(1, 1) if h == 2 else _ZERO
        half = h // 2
        via_h2 = _mono(half, half, half, half - 1) * at(n - 2, h - 2)
        return via_h2 + _mono(half, half, half - 1, half - 1) * at(n - 2, h - 4)
    if cls is PartitionClass.BASIS_P1:
        if n == 1:
            return _mono(1) if h == 1 else (_mono(1, 1) if h == 2 else _ZERO)
        if h % 2:
            return _mono(1) * at(n, h - 1)
        if n == 2 and h == 2:
            return q_monomial(1)
        return q_monomial(h // 2) * (at(n - 2, h) + at(n - 2, h - 1))
    if cls is PartitionClass.BASIS_P2:
        if h % 2:
            return _ZERO
        if n == 1:
            return _mono(1, 1) if h == 2 else _ZERO
        if n == 2 and h == 2:
            return q_monomial(1) + _mono(1, 1, 1)
        half = h // 2
        via_h2 = _mono(half, half, half, half - 1) * at(n - 2, h - 2)
        return q_monomial(half) * at(n - 2, h) + via_h2
    raise ValueError(f"no recurrence for {cls}")


def table_closed_form(cls: PartitionClass, n_max: int, h_max: int) -> list[list[Series]]:
    """The same grid in closed form, one product per parity case of (n, h)."""
    _require_grid(cls, n_max, h_max)
    return [[_closed_form(cls, n, h) for h in range(h_max + 1)] for n in range(n_max + 1)]


def _term(
    top: int, bottom: int, exps: tuple[int, int, int, int], extra: Series | None = None
) -> Series:
    """``gauss_binomial(top, bottom)`` times the monomial ``exps``, times
    ``extra`` when one is given.

    Outside ``0 <= bottom <= top`` the binomial vanishes, and the term is zero
    without building the monomial or the product: most entries of a grid are
    zero, and building them made the 12x12 tables about 45 % slower.
    """
    if not 0 <= bottom <= top:
        return _ZERO
    term = gauss_binomial(top, bottom) * _mono(*exps)
    return term if extra is None else term * extra


_ONE_PLUS_B = _ONE + _mono(0, 1)
_ONE_PLUS_INVERSE_D = _ONE + _mono(0, 0, 0, -1)


def _closed_form(cls: PartitionClass, n: int, h: int) -> Series:
    """:func:`table_closed_form`'s entry ``(n, h)`` for a basis tag: one
    :func:`_term` per parity case of the length and the largest part.  Some
    monomials carry negative exponents of ``c`` or ``d`` before expansion."""
    if n == 0:
        return _ONE if h == 0 else _ZERO
    if h <= 0:
        return _ZERO
    if cls is PartitionClass.BASIS_G1:
        # An even largest part is the odd one below it with one more b.
        j, even_h = (h + 1) // 2, 1 - h % 2
        if n % 2:
            k = (n + 1) // 2
            e = _c2(k) + _c2(j - k + 1)
            return _term(k - 1, j - k, (k + e, j - k + even_h + e, e, e))
        k = n // 2
        e = _c2(k + 1) + _c2(j - k)
        return _term(k - 1, j - k - 1, (k + e, j - k - 1 + even_h + e, e, e))
    if cls is PartitionClass.BASIS_G2:
        if h % 2:
            return _ZERO
        j = h // 2
        if n % 2:
            k = (n + 1) // 2
            e = _c2(k + 1) + _c2(j - k + 1)
            return _term(k - 1, j - k, (e, e, k - j - 1 + e, -k + e))
        k = n // 2
        e = _c2(k + 1) + _c2(j - k + 1)
        return _term(k, j - k, (e, e, k - j + e, -k + e))
    if cls is PartitionClass.BASIS_P1:
        if n == 1:
            return _mono(1) if h == 1 else (_mono(1, 1) if h == 2 else _ZERO)
        if n % 2 == 0:
            k = n // 2
            if h % 2 == 0:
                j = h // 2
                e = _c2(j) + k
                return _term(k - 1, j - 1, (j - 1 + e, e, e, e))
            j = (h + 1) // 2
            e = _c2(j - 1) + k
            return _term(k - 1, j - 2, (j - 1 + e, e, e, e))
        k = (n - 1) // 2
        if h % 2 == 0:
            j = h // 2
            e = _c2(j) + k
            return _term(k - 1, j - 1, (j + e, e, e, e), _ONE_PLUS_B)
        j = (h + 1) // 2
        e = _c2(j - 1) + k
        return _term(k - 1, j - 2, (j + e, e, e, e), _ONE_PLUS_B)
    if cls is PartitionClass.BASIS_P2:
        if h % 2:
            return _ZERO
        j = h // 2
        if n % 2 == 0:
            k = n // 2
            e = _c2(j) + k
            return _term(k - 1, j - 1, (e, e, e, 1 - j + e), _ONE_PLUS_INVERSE_D)
        k = (n + 1) // 2
        e = _c2(j) + k - 1
        return _term(k - 1, j - 1, (1 + e, 1 + e, e, 1 - j + e))
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
    _require_grid(cls, n_max, h_max)

    def outcomes() -> Iterator[Sequence[str]]:
        (_, enumerated), *others = _METHODS
        references = enumerated(cls, n_max, h_max)
        grids = [(method, fn(cls, n_max, h_max)) for method, fn in others]
        for n in range(n_max + 1):
            for h in range(h_max + 1):
                reference = references[n][h]
                lines = []
                for method, grid in grids:
                    cmp = grid[n][h].equal_to(reference)
                    if not cmp.equal:
                        lines.append(
                            f"n={n} h={h} {method}: at {cmp.exps} got {cmp.left},"
                            f" enumeration has {cmp.right}"
                        )
                if reference.has_negative_exponent():
                    lines.append(f"n={n} h={h}: negative exponent in {reference!r}")
                must_vanish = h > 2 * n or (n >= 1 and h == 0) or not cls.rule.allows(1, h)
                if must_vanish and not reference.is_zero():
                    lines.append(f"n={n} h={h}: expected empty support, got {reference!r}")
                yield lines

    return build_report(f"basis-tables[{cls.value}]", outcomes())
