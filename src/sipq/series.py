"""Sparse truncated Laurent series over the integers with graded truncation.

A :class:`Series` stores a finite dict of ``exponent-tuple -> int`` terms in a
fixed :class:`SeriesRing`.  Each ring assigns every variable a nonnegative
grading weight; the *degree* of a term is the weighted sum of its exponents.
A series either carries a truncation order ``trunc`` (every term of degree
``<= trunc`` is stored exactly; degrees above are unknown) or ``trunc=None``
(the series is an exact Laurent polynomial — nothing is missing).

The ``complete`` flag records whether the stored terms are the whole truth
even above ``trunc``.  Arithmetic tracks it conservatively: operations only
keep ``complete=True`` when no information can have been discarded.  Every
operation that would silently produce wrong coefficients raises
:class:`PrecisionLoss` instead of degrading the result.

:meth:`Series.geometric` expands ``1 / (1 - monomial)`` directly, and
:meth:`SubstitutionMap.map_exps` is the one place exponents are substituted.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class RingMismatch(SeriesError):
    """Operands live in different rings."""


class TruncationMismatch(SeriesError):
    """Operands carry distinct finite truncation orders."""


class PrecisionLoss(SeriesError):
    """The requested result would need coefficients that were discarded."""


class NotAUnit(SeriesError):
    """Inversion requested for a series whose constant term is not +1 or -1."""


class NonPositiveTail(SeriesError):
    """Inversion requires every non-constant term to have positive degree."""


class NegativeQDegree(SeriesError):
    """A substitution produced a term of negative degree."""


@dataclass(frozen=True)
class SeriesRing:
    """Variable names and their grading weights."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("grading weights must be nonnegative")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def degree(self, exps: tuple[int, ...]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))


FOUR_PARAM = SeriesRing(("a", "b", "c", "d"), (1, 1, 1, 1))
XZQ = SeriesRing(("x", "z", "q"), (0, 0, 1))
SINGLE_Q = SeriesRing(("q",), (1,))


class Series:
    """A sparse graded-truncated Laurent series with integer coefficients.

    ``min_deg`` is the least degree the series can contain: the minimum over
    stored terms, or ``trunc + 1`` for an incomplete series with no stored
    terms (everything below is known to vanish).
    """

    __slots__ = ("ring", "terms", "trunc", "min_deg", "complete")

    def __init__(
        self,
        ring: SeriesRing,
        terms: Mapping[tuple[int, ...], int],
        trunc: int | None,
        complete: bool = True,
    ) -> None:
        kept: dict[tuple[int, ...], int] = {}
        lowest: int | None = None
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exps) != ring.nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity for {ring.names}")
            deg = ring.degree(exps)
            if trunc is not None and deg > trunc:
                complete = False
                continue
            kept[exps] = coeff
            if lowest is None or deg < lowest:
                lowest = deg
        if trunc is None and not complete:
            raise ValueError("an untruncated series must be complete")
        if lowest is None:
            lowest = 0 if complete else trunc + 1  # type: ignore[operator]
        self.ring = ring
        self.terms = kept
        self.trunc = trunc
        self.min_deg = lowest
        self.complete = complete

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(ring: SeriesRing, trunc: int | None = None) -> "Series":
        return Series(ring, {}, trunc)

    @staticmethod
    def one(ring: SeriesRing, trunc: int | None = None) -> "Series":
        return Series(ring, {(0,) * ring.nvars: 1}, trunc)

    @staticmethod
    def monomial(
        ring: SeriesRing,
        coeff: int,
        exps: tuple[int, ...],
        trunc: int | None = None,
    ) -> "Series":
        return Series(ring, {tuple(exps): coeff}, trunc)

    @staticmethod
    def from_terms(
        ring: SeriesRing,
        items: Iterable[tuple[tuple[int, ...], int]],
        trunc: int | None,
        complete: bool = True,
    ) -> "Series":
        acc: dict[tuple[int, ...], int] = {}
        for exps, coeff in items:
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + coeff
        return Series(ring, acc, trunc, complete=complete)

    # -- bookkeeping ----------------------------------------------------------

    def _check_ring(self, other: "Series") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring.names} vs {other.ring.names}")

    def _combined_trunc(self, other: "Series") -> int | None:
        if self.trunc is None:
            return other.trunc
        if other.trunc is None:
            return self.trunc
        if self.trunc != other.trunc:
            raise TruncationMismatch(f"{self.trunc} vs {other.trunc}")
        return self.trunc

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.ring.nvars, 0)

    def degree_slice(self, degree: int) -> dict[tuple[int, ...], int]:
        """All terms of exactly the given degree."""
        if self.trunc is not None and degree > self.trunc:
            raise PrecisionLoss(f"degree {degree} exceeds truncation {self.trunc}")
        return {e: c for e, c in self.terms.items() if self.ring.degree(e) == degree}

    def _sorted_items(self) -> tuple[list[int], list[tuple[tuple[int, ...], int]]]:
        items = sorted(self.terms.items(), key=lambda kv: (self.ring.degree(kv[0]), kv[0]))
        return [self.ring.degree(e) for e, _ in items], items

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return Series(self.ring, merged, trunc, complete=self.complete and other.complete)

    def __neg__(self) -> "Series":
        return Series(
            self.ring,
            {e: -c for e, c in self.terms.items()},
            self.trunc,
            complete=self.complete,
        )

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, factor: int) -> "Series":
        if factor == 0:
            return Series(self.ring, {}, self.trunc, complete=self.complete)
        return Series(
            self.ring,
            {e: factor * c for e, c in self.terms.items()},
            self.trunc,
            complete=self.complete,
        )

    def __mul__(self, other: "Series") -> "Series":
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        # Unknown terms of an incomplete factor sit above its truncation; a
        # negative-degree term in the other factor would pull them back below
        # it, so no coefficient of the product would be trustworthy.
        if not self.complete and other.min_deg < 0:
            raise PrecisionLoss("incomplete series multiplied by negative-degree terms")
        if not other.complete and self.min_deg < 0:
            raise PrecisionLoss("incomplete series multiplied by negative-degree terms")
        small, large = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        degs, items = large._sorted_items()
        nvars = self.ring.nvars
        out: dict[tuple[int, ...], int] = {}
        dropped = False
        for exps_s, coeff_s in small.terms.items():
            deg_s = self.ring.degree(exps_s)
            if trunc is None:
                stop = len(items)
            else:
                stop = bisect_right(degs, trunc - deg_s)
                if stop < len(items):
                    dropped = True
            for i in range(stop):
                exps_l, coeff_l = items[i]
                key = tuple(exps_s[k] + exps_l[k] for k in range(nvars))
                out[key] = out.get(key, 0) + coeff_s * coeff_l
        complete = self.complete and other.complete and not dropped
        return Series(self.ring, out, trunc, complete=complete)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative powers are not defined; use invert_unit")
        result = Series.one(self.ring, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- inversion ------------------------------------------------------------

    def invert_unit(self, trunc: int | None = None) -> "Series":
        """Inverse of a series with constant term +1 or -1.

        Every non-constant term must have positive degree; the result is
        computed to order ``trunc`` (default: this series' truncation).
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotAUnit(f"constant term is {c0}")
        target = self.trunc if trunc is None else trunc
        unit = (0,) * self.ring.nvars
        tail = {e: c for e, c in self.terms.items() if e != unit}
        if not tail:
            return Series(self.ring, {unit: c0}, target)
        tail_min = min(self.ring.degree(e) for e in tail)
        if tail_min <= 0:
            raise NonPositiveTail("all non-constant terms must have positive degree")
        if target is None:
            raise PrecisionLoss("the inverse of a non-monomial unit is an infinite series")
        if not self.complete and (self.trunc is None or target > self.trunc):
            raise PrecisionLoss(f"inverse to order {target} needs the series to that order")
        # With constant term u in {+1,-1}: 1/(u + t) = u / (1 + u t)
        #                                          = u * sum_k (-u t)^k.
        w = Series(self.ring, {e: -c0 * c for e, c in tail.items()}, target, complete=False)
        one = Series.one(self.ring, target)
        acc = one
        for _ in range(target // tail_min):
            acc = one + (w * acc)
        acc = acc.scale(c0)
        # The true inverse continues above `target`, so it is never complete.
        return Series(self.ring, acc.terms, target, complete=False)

    @staticmethod
    def geometric(ring: SeriesRing, coeff: int, exps: tuple[int, ...], trunc: int) -> "Series":
        """``1 / (1 - coeff * x^exps)`` expanded directly as ``sum_k (coeff * x^exps)^k``.

        The monomial must have positive degree; the result is exact to order
        ``trunc`` and, like every inverse with a tail, never complete.
        """
        deg = ring.degree(exps)
        if deg <= 0:
            raise NonPositiveTail(f"monomial {exps} must have positive degree")
        if trunc is None:
            raise PrecisionLoss("the inverse of a non-monomial unit is an infinite series")
        terms = {tuple(k * e for e in exps): coeff**k for k in range(trunc // deg + 1)}
        return Series(ring, terms, trunc, complete=False)

    # -- truncation and substitution -------------------------------------------

    def truncate(self, trunc: int | None) -> "Series":
        """Re-truncate: down always works, up (or to None) needs completeness."""
        if trunc is not None and (self.trunc is None or trunc <= self.trunc):
            return Series(self.ring, self.terms, trunc, complete=self.complete)
        if self.trunc == trunc:
            return self
        if not self.complete:
            raise PrecisionLoss(f"cannot raise truncation {self.trunc} -> {trunc} of an incomplete series")
        return Series(self.ring, self.terms, trunc, complete=True)

    def substitute(self, smap: "SubstitutionMap", trunc: int | None) -> "Series":
        """Map each variable to a monomial of the target ring.

        For an incomplete source, each variable's image degree must equal one
        uniform positive multiple of that variable's own weight, so that the
        guaranteed target order can be derived from the source truncation.
        """
        if smap.source != self.ring:
            raise RingMismatch(f"map expects {smap.source.names}, series has {self.ring.names}")
        target = smap.target
        if not self.complete:
            alpha = smap.degree_scale()
            if alpha is None or alpha <= 0:
                raise PrecisionLoss(
                    "substitution into an incomplete series needs a uniform positive degree scale"
                )
            if self.trunc is None:
                raise PrecisionLoss("incomplete series without truncation")
            guaranteed = alpha * (self.trunc + 1) - 1
            if trunc is None or trunc > guaranteed:
                raise PrecisionLoss(f"target truncation {trunc} exceeds guaranteed order {guaranteed}")
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = smap.map_exps(exps)
            if target.degree(key) < 0:
                raise NegativeQDegree(f"term {exps} maps to negative degree {key}")
            out[key] = out.get(key, 0) + coeff
        return Series(target, out, trunc, complete=self.complete)

    # -- comparison and rendering ----------------------------------------------

    def equal_to(self, other: "Series") -> "SeriesComparison":
        """Compare coefficients up to the common truncation; report the first difference."""
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        keys = set(self.terms) | set(other.terms)
        for exps in sorted(keys, key=lambda e: (self.ring.degree(e), e)):
            if trunc is not None and self.ring.degree(exps) > trunc:
                continue
            lhs, rhs = self.terms.get(exps, 0), other.terms.get(exps, 0)
            if lhs != rhs:
                return SeriesComparison(False, exps, lhs, rhs)
        return SeriesComparison(True, None, 0, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.trunc == other.trunc and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def to_records(self) -> list[dict[str, object]]:
        """JSON-friendly rows: exponents under ``e<name>`` keys, coefficient as text."""
        rows = []
        for exps, coeff in sorted(self.terms.items(), key=lambda kv: (self.ring.degree(kv[0]), kv[0])):
            row: dict[str, object] = {f"e{n}": e for n, e in zip(self.ring.names, exps)}
            row["coeff"] = str(coeff)
            rows.append(row)
        return rows

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in sorted(self.terms.items(), key=lambda kv: (self.ring.degree(kv[0]), kv[0])):
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{coeff}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self) -> str:
        flag = "" if self.complete else ", incomplete"
        return f"Series({self.to_string()}; trunc={self.trunc}{flag})"


@dataclass(frozen=True)
class SeriesComparison:
    equal: bool
    exps: tuple[int, ...] | None
    left: int
    right: int


@dataclass(frozen=True)
class SubstitutionMap:
    """A monomial substitution: each source variable maps to one target monomial."""

    source: SeriesRing
    target: SeriesRing
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.nvars:
            raise ValueError("one image per source variable required")
        for img in self.images:
            if len(img) != self.target.nvars:
                raise ValueError(f"image {img} has wrong arity for {self.target.names}")

    def degree_scale(self) -> int | None:
        """The factor by which the map scales degrees, if one exists.

        Returns ``alpha`` such that every source variable of weight ``w`` maps
        to a monomial of target degree ``alpha * w``, or None if no single
        factor works.  When it exists, a term of source degree ``d`` always
        maps to target degree ``alpha * d``.
        """
        alpha: int | None = None
        for w, img in zip(self.source.weights, self.images):
            d = self.target.degree(img)
            if w == 0:
                if d != 0:
                    return None
                continue
            if d % w != 0:
                return None
            scale = d // w
            if alpha is None:
                alpha = scale
            elif alpha != scale:
                return None
        return alpha

    def map_exps(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """The target exponents of the source monomial with exponents ``exps``."""
        out = [0] * self.target.nvars
        for e, image in zip(exps, self.images):
            for k, v in enumerate(image):
                out[k] += e * v
        return tuple(out)
