"""Sparse truncated Laurent series over the integers with graded truncation.

A :class:`Series` holds finitely many ``exponent-tuple -> int`` terms in a
fixed :class:`SeriesRing`.  Each ring assigns every variable a nonnegative
grading weight; the *degree* of a term is the weighted sum of its exponents.
Terms are stored in buckets, ``degree -> {exponent-tuple: int}``, so a term's
degree is computed once, when it enters; a product walks one factor's buckets
in ascending degree and stops at the truncation, and truncating drops whole
buckets.  The flat ``terms`` dict is a view built on access, for readers
outside the arithmetic.
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

from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Iterator, Mapping


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
        return sum(map(mul, self.weights, exps))


FOUR_PARAM = SeriesRing(("a", "b", "c", "d"), (1, 1, 1, 1))
XZQ = SeriesRing(("x", "z", "q"), (0, 0, 1))
SINGLE_Q = SeriesRing(("q",), (1,))


class Series:
    """A sparse graded-truncated Laurent series with integer coefficients.

    Terms are stored by degree: ``buckets`` maps each degree to a non-empty
    dict ``exponent-tuple -> int`` of the terms of that degree, none with
    coefficient 0.  A term's degree is computed once, when it enters through
    the constructor, :meth:`from_terms`, :meth:`monomial`, :meth:`geometric`
    or :meth:`substitute`; arithmetic passes degrees through and truncation
    drops whole buckets.  Bucket dicts are never changed after construction,
    so series share them.  ``terms`` is a flat ``exponent-tuple -> int`` view,
    built on each access.

    ``min_deg`` is the least degree the series can contain: the least stored
    degree, or ``trunc + 1`` for an incomplete series with no stored terms
    (everything below is known to vanish).
    """

    __slots__ = ("ring", "buckets", "trunc", "min_deg", "complete")

    def __init__(
        self,
        ring: SeriesRing,
        terms: Mapping[tuple[int, ...], int],
        trunc: int | None,
        complete: bool = True,
    ) -> None:
        buckets: dict[int, dict[tuple[int, ...], int]] = {}
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exps) != ring.nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity for {ring.names}")
            buckets.setdefault(ring.degree(exps), {})[exps] = coeff
        self._set(ring, buckets, trunc, complete)

    @classmethod
    def _from_buckets(
        cls,
        ring: SeriesRing,
        buckets: Mapping[int, dict[tuple[int, ...], int]],
        trunc: int | None,
        complete: bool,
    ) -> "Series":
        """A series on buckets whose degrees are trusted; zero coefficients,
        empty buckets and buckets above ``trunc`` are dropped."""
        out = cls.__new__(cls)
        kept = {}
        for deg, bucket in buckets.items():
            if 0 in bucket.values():
                bucket = {e: c for e, c in bucket.items() if c}
            if bucket:
                kept[deg] = bucket
        out._set(ring, kept, trunc, complete)
        return out

    def _set(
        self,
        ring: SeriesRing,
        buckets: dict[int, dict[tuple[int, ...], int]],
        trunc: int | None,
        complete: bool,
    ) -> None:
        if trunc is not None and buckets and max(buckets) > trunc:
            complete = False
            buckets = {d: b for d, b in buckets.items() if d <= trunc}
        if trunc is None and not complete:
            raise ValueError("an untruncated series must be complete")
        if buckets:
            lowest = min(buckets)
        else:
            lowest = 0 if complete else trunc + 1  # type: ignore[operator]
        self.ring = ring
        self.buckets = buckets
        self.trunc = trunc
        self.min_deg = lowest
        self.complete = complete

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """Every stored term as one flat dict, built on each access."""
        return {e: c for bucket in self.buckets.values() for e, c in bucket.items()}

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
        return not self.buckets

    def coefficient(self, exps: tuple[int, ...]) -> int:
        exps = tuple(exps)
        return self.buckets.get(self.ring.degree(exps), {}).get(exps, 0)

    def constant_term(self) -> int:
        return self.buckets.get(0, {}).get((0,) * self.ring.nvars, 0)

    def degree_slice(self, degree: int) -> dict[tuple[int, ...], int]:
        """All terms of exactly the given degree."""
        if self.trunc is not None and degree > self.trunc:
            raise PrecisionLoss(f"degree {degree} exceeds truncation {self.trunc}")
        return dict(self.buckets.get(degree, {}))

    def has_negative_exponent(self) -> bool:
        """Whether any stored term has a negative exponent."""
        return any(e < 0 for bucket in self.buckets.values() for exps in bucket for e in exps)

    def incomplete(self) -> "Series":
        """The same stored terms, with the terms above the truncation unknown."""
        return Series._from_buckets(self.ring, self.buckets, self.trunc, False)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        merged = dict(self.buckets)
        for deg, bucket in other.buckets.items():
            mine = merged.get(deg)
            if mine is None:
                merged[deg] = bucket
                continue
            mine = dict(mine)
            for exps, coeff in bucket.items():
                mine[exps] = mine.get(exps, 0) + coeff
            merged[deg] = mine
        return Series._from_buckets(self.ring, merged, trunc, self.complete and other.complete)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, factor: int) -> "Series":
        buckets = {
            deg: {e: factor * c for e, c in bucket.items()}
            for deg, bucket in self.buckets.items()
        }
        return Series._from_buckets(self.ring, buckets, self.trunc, self.complete)

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
        ladder = sorted(other.buckets.items())
        out: dict[int, dict[tuple[int, ...], int]] = {}
        dropped = False
        for deg_s, bucket_s in self.buckets.items():
            for deg_o, bucket_o in ladder:
                deg = deg_s + deg_o
                if trunc is not None and deg > trunc:
                    dropped = True
                    break
                acc = out.get(deg)
                if acc is None:
                    acc = out[deg] = {}
                get = acc.get
                for exps_s, coeff_s in bucket_s.items():
                    for exps_o, coeff_o in bucket_o.items():
                        key = tuple(map(add, exps_s, exps_o))
                        acc[key] = get(key, 0) + coeff_s * coeff_o
        complete = self.complete and other.complete and not dropped
        return Series._from_buckets(self.ring, out, trunc, complete)

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
        # With constant term u in {+1,-1}: 1/(u + t) = u / (1 + u t)
        #                                          = u * sum_k (-u t)^k.
        tail = {
            deg: {e: -c0 * c for e, c in bucket.items() if e != unit}
            for deg, bucket in self.buckets.items()
        }
        tail = {deg: bucket for deg, bucket in tail.items() if bucket}
        if not tail:
            return Series(self.ring, {unit: c0}, target)
        tail_min = min(tail)
        if tail_min <= 0:
            raise NonPositiveTail("all non-constant terms must have positive degree")
        if target is None:
            raise PrecisionLoss("the inverse of a non-monomial unit is an infinite series")
        if not self.complete and (self.trunc is None or target > self.trunc):
            raise PrecisionLoss(f"inverse to order {target} needs the series to that order")
        w = Series._from_buckets(self.ring, tail, target, False)
        one = Series.one(self.ring, target)
        acc = one
        for _ in range(target // tail_min):
            acc = one + (w * acc)
        # The true inverse continues above `target`, so it is never complete.
        return acc.scale(c0).incomplete()

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
        buckets = {
            k * deg: {tuple(k * e for e in exps): coeff**k} for k in range(trunc // deg + 1)
        }
        return Series._from_buckets(ring, buckets, trunc, False)

    # -- truncation and substitution -------------------------------------------

    def truncate(self, trunc: int | None) -> "Series":
        """Re-truncate: down always works, up (or to None) needs completeness."""
        if trunc is not None and (self.trunc is None or trunc <= self.trunc):
            return Series._from_buckets(self.ring, self.buckets, trunc, self.complete)
        if self.trunc == trunc:
            return self
        if not self.complete:
            raise PrecisionLoss(f"cannot raise truncation {self.trunc} -> {trunc} of an incomplete series")
        return Series._from_buckets(self.ring, self.buckets, trunc, True)

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
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for bucket in self.buckets.values():
            for exps, coeff in bucket.items():
                key = smap.map_exps(exps)
                deg = target.degree(key)
                if deg < 0:
                    raise NegativeQDegree(f"term {exps} maps to negative degree {key}")
                acc = out.setdefault(deg, {})
                acc[key] = acc.get(key, 0) + coeff
        return Series._from_buckets(target, out, trunc, self.complete)

    # -- comparison and rendering ----------------------------------------------

    def equal_to(self, other: "Series") -> "SeriesComparison":
        """Compare coefficients up to the common truncation; report the first
        difference, the least one by (degree, exponents)."""
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        empty: dict[tuple[int, ...], int] = {}
        for deg in sorted(self.buckets.keys() | other.buckets.keys()):
            if trunc is not None and deg > trunc:
                break
            lhs, rhs = self.buckets.get(deg, empty), other.buckets.get(deg, empty)
            if lhs != rhs:
                exps = min(e for e in lhs.keys() | rhs.keys() if lhs.get(e, 0) != rhs.get(e, 0))
                return SeriesComparison(False, exps, lhs.get(exps, 0), rhs.get(exps, 0))
        return SeriesComparison(True, None, 0, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.trunc == other.trunc and self.buckets == other.buckets

    __hash__ = None  # type: ignore[assignment]

    def _sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every term, by degree and then by exponents."""
        for deg in sorted(self.buckets):
            yield from sorted(self.buckets[deg].items())

    def to_records(self) -> list[dict[str, object]]:
        """JSON-friendly rows: exponents under ``e<name>`` keys, coefficient as text."""
        rows = []
        for exps, coeff in self._sorted_terms():
            row: dict[str, object] = {f"e{n}": e for n, e in zip(self.ring.names, exps)}
            row["coeff"] = str(coeff)
            rows.append(row)
        return rows

    def to_string(self) -> str:
        if not self.buckets:
            return "0"
        chunks = []
        for exps, coeff in self._sorted_terms():
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
