"""Sparse truncated Laurent series over the integers with graded truncation.

A :class:`Series` holds finitely many terms, each an exponent vector with an
integer coefficient, in a fixed :class:`SeriesRing`.  Each ring assigns every
variable a nonnegative grading weight; the *degree* of a term is the weighted
sum of its exponents.  Terms are stored in buckets, ``degree -> {packed key:
int}``, so a term's degree is computed once, when it enters; a product skips
whole target buckets above the truncation, and truncating drops whole
buckets.

An exponent vector is stored as one packed int (Kronecker substitution):
``key = sum(e_i * RADIX**(n-1-i))`` with balanced digits, ``|e_i| <
EXPONENT_LIMIT = RADIX / 2``, the first variable in the most significant
digit.  Negative exponents need no offset, the key of a product term is the
sum of its factors' keys, and int order equals exponent-tuple order.  Every
series carries ``bound``, an upper bound on ``|exponent|``: it is measured
when terms enter, a product's is the sum of its factors', and a bound that
reaches ``EXPONENT_LIMIT`` raises :class:`ExponentOverflow` instead of letting
digits carry into each other.  Keys are unpacked to tuples only by readers:
the flat ``terms`` view, :meth:`Series.degree_slice`, comparison reports and
rendering.

A series is either exact, ``trunc=None`` (an exact Laurent polynomial:
nothing is missing), or truncated at ``trunc`` (every term of degree ``<=
trunc`` is stored exactly, and every coefficient above is unknown, even where
nothing is stored).  Every operation that would need an unknown coefficient
raises :class:`PrecisionLoss` instead of degrading the result: raising a
truncation, reading a coefficient above it, or a product in which a
negative-degree term would pull unknown terms back below it.

One kernel, :meth:`Series.times_run`, applies a whole run of steps to one
private bucket map and builds one series at the end: a multiplication or a
division by a binomial ``1 - sign * x^exps``, or adding a series.  Every step
is one shift-add walk, which adds a shifted, scaled copy of each source
bucket into the bucket ``deg`` above it, in the order it is given.  On the
run's own buckets the order picks the operation: walking away from the
targets multiplies, walking towards them divides (the recurrence ``g_d = f_d
+ sign * x^exps * g_(d - deg)``, linear in the output).  An addition walks the
addend's buckets with no shift.  A run copies its input's buckets once, up
front, so every bucket it writes is its own.  :meth:`Series.times_factor` is a
run of one binomial step and :meth:`Series.plus` a run of additions; a product
of two series walks the larger factor's buckets once per term of the other.
:meth:`SubstitutionMap.map_exps` is the one place exponents are substituted;
a partition row's key sums the packed images of its letters, read through it.

No class here is a dataclass: :class:`SeriesRing` is a slotted class and the
records are ``typing.NamedTuple`` classes, because the dataclass module imports
``inspect`` and decorating a class execs generated code, which together cost
every CLI call more time than a small check takes.  The two classes that
validate, :class:`SeriesRing` and :class:`SubstitutionMap`, do so on every way
of building one, and every instance is immutable.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple

#: The packing radix: one balanced base-``RADIX`` digit per variable.
RADIX = 1 << 24
#: Every stored exponent lies strictly between ``-EXPONENT_LIMIT`` and ``EXPONENT_LIMIT``.
EXPONENT_LIMIT = RADIX // 2
_DIGIT_BITS = RADIX.bit_length() - 1


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


class ExponentOverflow(SeriesError):
    """An exponent would reach ``EXPONENT_LIMIT``, beyond what a packed key holds."""


def _checked_bound(bound: int) -> int:
    if bound >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"exponent bound {bound} reaches the packing limit {EXPONENT_LIMIT}")
    return bound


class SeriesRing:
    """Variable names and their grading weights, and the packing of exponent
    vectors into int keys.

    Immutable; equality and hash use ``names`` and ``weights`` only.
    """

    # `_shifts` and `_offset` are derived from the arity: each variable's digit
    # position, first variable highest, and the offset that makes every digit
    # nonnegative.
    __slots__ = ("names", "weights", "_shifts", "_offset")

    names: tuple[str, ...]
    weights: tuple[int, ...]
    _shifts: tuple[int, ...]
    _offset: int

    def __init__(self, names: tuple[str, ...], weights: tuple[int, ...]) -> None:
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if any(w < 0 for w in weights):
            raise ValueError("grading weights must be nonnegative")
        shifts = tuple(_DIGIT_BITS * i for i in reversed(range(len(names))))
        # Adding `_offset` turns every balanced digit e into e + RADIX/2, in
        # [1, RADIX - 1], so plain shifts and masks read the digits; the top
        # bit of a shifted digit is set exactly when e >= 0.
        offset = sum(EXPONENT_LIMIT << s for s in shifts)
        for slot, value in zip(self.__slots__, (names, weights, shifts, offset)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Copies and unpickled rings go through the constructor too.
        return (SeriesRing, (self.names, self.weights))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and self.weights == other.weights  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        return f"SeriesRing(names={self.names!r}, weights={self.weights!r})"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def degree(self, exps: tuple[int, ...]) -> int:
        if len(exps) != len(self.weights):
            raise ValueError(f"exponent tuple {exps} has wrong arity for {self.names}")
        return sum(map(mul, self.weights, exps))

    def pack(self, exps: Iterable[int]) -> int:
        """The key of an exponent vector whose entries are below ``EXPONENT_LIMIT``
        in absolute value (not checked here)."""
        key = 0
        for e in exps:
            key = (key << _DIGIT_BITS) + e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a packed key."""
        key += self._offset
        return tuple(((key >> s) & (RADIX - 1)) - EXPONENT_LIMIT for s in self._shifts)

    def has_negative(self, key: int) -> bool:
        """Whether the packed key has a negative exponent."""
        offset = self._offset
        return (key + offset) & offset != offset


FOUR_PARAM = SeriesRing(("a", "b", "c", "d"), (1, 1, 1, 1))
XZQ = SeriesRing(("x", "z", "q"), (0, 0, 1))
SINGLE_Q = SeriesRing(("q",), (1,))


class Series:
    """A sparse graded-truncated Laurent series with integer coefficients.

    Terms are stored by degree: ``buckets`` maps each degree to a non-empty
    dict ``packed key -> int`` of the terms of that degree, none with
    coefficient 0 (see the module docstring for the packing).  A term's
    degree and key are computed once, when it enters through the constructor
    or :meth:`monomial`; arithmetic passes degrees through, adds keys, and
    truncation drops whole buckets.
    Bucket dicts are never changed after construction, so series share them.
    ``terms`` is a flat ``exponent-tuple -> int`` view, built on each access.

    ``min_deg`` is the least degree the series can contain: the least stored
    degree or, with no stored terms, 0 for an exact series and ``trunc + 1``
    for a truncated one (everything below is known to vanish).  ``bound`` is
    at least every stored ``|exponent|`` and below ``EXPONENT_LIMIT``.
    """

    __slots__ = ("ring", "buckets", "trunc", "min_deg", "bound")

    def __init__(
        self, ring: SeriesRing, terms: Mapping[tuple[int, ...], int], trunc: int | None
    ) -> None:
        # The bound covers the terms of degree at most ``trunc``; the others
        # are dropped on storing.
        buckets: dict[int, dict[int, int]] = {}
        bound = 0
        for exps, coeff in terms.items():
            if coeff:
                deg = ring.degree(exps)
                if trunc is None or deg <= trunc:
                    bound = max(bound, max(exps), -min(exps))
                buckets.setdefault(deg, {})[ring.pack(exps)] = coeff
        self._set(ring, buckets, _checked_bound(bound), trunc)

    @classmethod
    def _from_buckets(
        cls,
        ring: SeriesRing,
        buckets: Mapping[int, dict[int, int]],
        bound: int,
        trunc: int | None,
    ) -> "Series":
        """A series on buckets whose degrees and bound are trusted."""
        out = cls.__new__(cls)
        out._set(ring, buckets, bound, trunc)
        return out

    def _set(
        self,
        ring: SeriesRing,
        buckets: Mapping[int, dict[int, int]],
        bound: int,
        trunc: int | None,
    ) -> None:
        """Store the buckets, dropping zero coefficients, empty buckets and
        buckets above ``trunc``."""
        kept = {}
        for deg, bucket in buckets.items():
            if trunc is not None and deg > trunc:
                continue
            if 0 in bucket.values():
                bucket = {k: c for k, c in bucket.items() if c}
            if bucket:
                kept[deg] = bucket
        if kept:
            lowest = min(kept)
        else:
            lowest = 0 if trunc is None else trunc + 1
        self.ring = ring
        self.buckets = kept
        self.trunc = trunc
        self.min_deg = lowest
        self.bound = bound

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """Every stored term as one flat dict, built on each access."""
        unpack = self.ring.unpack
        return {unpack(k): c for bucket in self.buckets.values() for k, c in bucket.items()}

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

    def _check_known(self, degree: int) -> None:
        if self.trunc is not None and degree > self.trunc:
            raise PrecisionLoss(f"degree {degree} exceeds truncation {self.trunc}")

    def constant_term(self) -> int:
        self._check_known(0)
        return self.buckets.get(0, {}).get(0, 0)

    def degree_slice(self, degree: int) -> dict[tuple[int, ...], int]:
        """All terms of exactly the given degree."""
        self._check_known(degree)
        unpack = self.ring.unpack
        return {unpack(k): c for k, c in self.buckets.get(degree, {}).items()}

    def has_negative_exponent(self) -> bool:
        """Whether any stored term has a negative exponent."""
        negative = self.ring.has_negative
        return any(negative(k) for bucket in self.buckets.values() for k in bucket)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        return self.plus((other,))

    def plus(self, others: Iterable["Series"]) -> "Series":
        """``self`` plus every series of ``others``, left to right: a run of
        ``add`` steps (see :meth:`times_run`), with the result, bound and
        errors of adding them one at a time with ``+``."""
        return self.times_run(("add", other) for other in others)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, factor: int) -> "Series":
        buckets = {
            deg: {k: factor * c for k, c in bucket.items()}
            for deg, bucket in self.buckets.items()
        }
        return Series._from_buckets(self.ring, buckets, self.bound, self.trunc)

    def __mul__(self, other: "Series") -> "Series":
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        # Unknown terms of a truncated factor sit above its truncation; a
        # negative-degree term in the other factor would pull them back below
        # it, so no coefficient of the product would be trustworthy.
        if (self.trunc is not None and other.min_deg < 0) or (
            other.trunc is not None and self.min_deg < 0
        ):
            raise PrecisionLoss("truncated series multiplied by negative-degree terms")
        # Each product exponent is a sum of two factor exponents, so the sum of
        # the bounds keeps every digit of every summed key balanced.
        bound = _checked_bound(self.bound + other.bound)
        # The run kernel's product walks the factor with fewer terms term by
        # term, each term against whole buckets of the other.
        big, small = self, other
        if sum(map(len, self.buckets.values())) < sum(map(len, other.buckets.values())):
            big, small = other, self
        return Series._from_buckets(
            self.ring, _times_poly(big.buckets, small.buckets, trunc), bound, trunc
        )

    # -- inversion ------------------------------------------------------------

    def invert_unit(self, trunc: int | None = None) -> "Series":
        """Inverse of a series with constant term +1 or -1.

        Every non-constant term must have positive degree; the result is
        computed to order ``trunc`` (default: this series' truncation), which
        a truncated series cannot exceed.
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotAUnit(f"constant term is {c0}")
        target = self.trunc if trunc is None else trunc
        # With constant term u in {+1,-1}: 1/(u + t) = u / (1 + u t)
        #                                          = u * sum_k (-u t)^k.
        # The constant term is the one with key 0.
        tail = {
            deg: {k: -c0 * c for k, c in bucket.items() if k}
            for deg, bucket in self.buckets.items()
        }
        tail = {deg: bucket for deg, bucket in tail.items() if bucket}
        tail_min = min(tail, default=1)
        if tail_min <= 0:
            raise NonPositiveTail("all non-constant terms must have positive degree")
        if self.trunc is not None and trunc is not None and trunc > self.trunc:
            raise PrecisionLoss(f"inverse to order {target} needs the series to that order")
        if not tail:
            return Series(self.ring, {(0,) * self.ring.nvars: c0}, target)
        if target is None:
            raise PrecisionLoss("the inverse of a non-monomial unit is an infinite series")
        w = Series._from_buckets(self.ring, tail, self.bound, target)
        one = Series.one(self.ring, target)
        acc = one
        for _ in range(target // tail_min):
            acc = one + (w * acc)
        return acc.scale(c0)

    def times_factor(self, sign: int, exps: tuple[int, ...], inverted: bool = False) -> "Series":
        """``self * (1 - sign * x^exps)``, or ``self / (1 - sign * x^exps)`` when
        ``inverted``: a run of one step (see :meth:`times_run`).

        The result, its truncation and its bound are those of the general
        product with the binomial, or with its geometric expansion ``sum_k
        (sign * x^exps)^k``, truncated like this series, and the same inputs
        raise the same errors.  An inverted factor needs a finite truncation
        and positive degree.
        """
        return self.times_run((("over" if inverted else "times", sign, exps),))

    def times_run(self, steps: Iterable[tuple]) -> "Series":
        """Apply a run of steps, in order, to one private copy of the buckets,
        and build one series at the end.  A step is one of

        * ``("times", sign, exps)``: multiply by ``1 - sign * x^exps``;
        * ``("over", sign, exps)``: divide by it;
        * ``("add", other)``: add the series ``other``.

        Each step has the result, truncation, bound and errors of the series
        operation it stands for: a binomial step those of :meth:`times_factor`
        applied alone, an ``add`` those of ``+``.  So an exact run adopts the
        truncation of the first truncated addend, and a run of Horner steps,
        ``add`` and then ``over`` from the top level down, sums
        ``sum_k P_k / (d_0 ... d_k)`` in one pass.

        The input's buckets are copied once, up front, and every step is one
        shift-add walk that writes the run's own dicts in place: an ``add``
        walks the addend's buckets with no shift, copying a bucket where it
        opens a degree; a binomial step walks the run's own buckets, shifted
        by the binomial's degree, and the walk order picks the operation.  A
        multiplication walks away from the targets (descending degree, or
        ascending for a factor of negative degree), so each source bucket is
        read before it is written; a division walks towards them, in
        ascending degree, so each bucket is final before the recurrence reads
        it.
        """
        ring, trunc, bound = self.ring, self.trunc, self.bound
        buckets = {deg: dict(bucket) for deg, bucket in self.buckets.items()}
        for kind, *args in steps:
            if kind == "add":
                (other,) = args
                self._check_ring(other)
                if trunc is None and other.trunc is not None:
                    # The exact sum so far loses its terms above the truncation.
                    trunc = other.trunc
                    buckets = {deg: bucket for deg, bucket in buckets.items() if deg <= trunc}
                elif other.trunc is not None and other.trunc != trunc:
                    raise TruncationMismatch(f"{trunc} vs {other.trunc}")
                bound = max(bound, other.bound)
                _shift_walk(buckets, other.buckets, other.buckets, 0, 0, 1, trunc)
                continue
            if kind not in ("times", "over"):
                raise ValueError(f"unknown run step {kind!r}")
            sign, exps = args
            exps = tuple(exps)
            deg = ring.degree(exps)
            edge = max(map(abs, exps), default=0)
            if kind == "over":
                if deg <= 0:
                    raise NonPositiveTail(f"monomial {exps} must have positive degree")
                if trunc is None:
                    raise PrecisionLoss("the inverse of a non-monomial unit is an infinite series")
                # The expansion's k-th term has key k * key(exps), for k <= trunc // deg.
                tail = _checked_bound((trunc // deg) * edge)
                if _below_zero(buckets, trunc):
                    raise PrecisionLoss("negative-degree terms divided by a truncated expansion")
                bound = _checked_bound(bound + tail)
                # Towards the targets: each source is final before it is read.
                ascending = range(min(buckets, default=trunc), trunc - deg + 1)
                _shift_walk(buckets, buckets, ascending, ring.pack(exps), deg, sign, trunc)
                continue
            # The binomial as a series truncated like this one: its x^exps term
            # is lost above the truncation.
            term_in = bool(sign) and (trunc is None or deg <= trunc)
            factor_bound = _checked_bound(edge if term_in else 0)
            # The precision rules of a product (see __mul__); the binomial's
            # least degree is negative only through a negative-degree term, or
            # below a truncation under -1, where this series' is negative too.
            if trunc is not None and ((term_in and deg < 0) or _below_zero(buckets, trunc)):
                raise PrecisionLoss("truncated series multiplied by negative-degree terms")
            bound = _checked_bound(bound + factor_bound)
            if term_in:
                # Away from the targets: each source is read before it is written.
                away = sorted(buckets, reverse=deg > 0)
                _shift_walk(buckets, buckets, away, ring.pack(exps), deg, -sign, trunc)
        return Series._from_buckets(ring, buckets, bound, trunc)

    # -- truncation -------------------------------------------------------------

    def truncate(self, trunc: int | None) -> "Series":
        """Re-truncate: down always works; up, or to None, only on an exact series."""
        if trunc is not None and (self.trunc is None or trunc <= self.trunc):
            return Series._from_buckets(self.ring, self.buckets, self.bound, trunc)
        if self.trunc == trunc:
            return self
        raise PrecisionLoss(f"cannot raise truncation {self.trunc} -> {trunc} of a truncated series")

    # -- comparison and rendering ----------------------------------------------

    def equal_to(self, other: "Series") -> "SeriesComparison":
        """Compare coefficients up to the common truncation; report the first
        difference, the least one by (degree, exponents)."""
        self._check_ring(other)
        trunc = self._combined_trunc(other)
        empty: dict[int, int] = {}
        for deg in sorted(self.buckets.keys() | other.buckets.keys()):
            if trunc is not None and deg > trunc:
                break
            lhs, rhs = self.buckets.get(deg, empty), other.buckets.get(deg, empty)
            if lhs != rhs:
                # Key order is exponent-tuple order.
                key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k, 0) != rhs.get(k, 0))
                return SeriesComparison(
                    False, self.ring.unpack(key), lhs.get(key, 0), rhs.get(key, 0)
                )
        return SeriesComparison(True, None, 0, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.trunc == other.trunc and self.buckets == other.buckets

    __hash__ = None  # type: ignore[assignment]

    def _sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every term, by degree and then by exponents (key order)."""
        unpack = self.ring.unpack
        for deg in sorted(self.buckets):
            for key, coeff in sorted(self.buckets[deg].items()):
                yield unpack(key), coeff

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
        return f"Series({self.to_string()}; trunc={self.trunc})"



# -- the run kernel -------------------------------------------------------------
#
# Each step of :meth:`Series.times_run` is one ``_shift_walk`` over
# ``buckets``, a private map whose bucket dicts the run has copied or built
# itself, written in place; :meth:`Series.__mul__` hands its product to
# ``_times_poly``, which walks into new buckets.


def _below_zero(buckets: dict[int, dict[int, int]], trunc: int | None) -> bool:
    """Whether a series on these buckets would have ``min_deg < 0``; buckets
    may hold zero coefficients, which a series drops."""
    if buckets and min(buckets) >= 0:
        return False
    stored = [d for d, bucket in buckets.items() if any(bucket.values())]
    if stored:
        return min(stored) < 0
    return trunc is not None and trunc + 1 < 0


def _shift_walk(
    buckets: dict[int, dict[int, int]],
    source: Mapping[int, dict[int, int]],
    degrees: Iterable[int],
    key: int,
    deg: int,
    factor: int,
    trunc: int | None,
) -> None:
    """For each source degree ``d`` of ``degrees``, in that order, add
    ``factor * x^e * source[d]`` into ``buckets[d + deg]`` in place, ``e`` of
    key ``key`` and degree ``deg``; targets above ``trunc`` are skipped.

    The one shift-add loop of the kernel.  When ``source`` is ``buckets``
    itself, the order decides the operation: walking away from the targets
    reads every source before it is written, a multiplication by ``1 + factor
    * x^e``; walking towards them makes every source final before it is read,
    the division recurrence ``g_d = f_d + factor * x^e * g_(d - deg)``.
    """
    for d in degrees:
        src = source.get(d)
        if not src:
            continue
        target = d + deg
        if trunc is not None and target > trunc:
            continue
        acc = buckets.get(target)
        if acc is None:
            buckets[target] = {k + key: factor * c for k, c in src.items()}
            continue
        if acc is src:
            # At degree 0 the source is the target, so the sum goes into a new
            # dict while the old one is read.
            acc = buckets[target] = dict(acc)
        get = acc.get
        for k, c in src.items():
            k += key
            acc[k] = get(k, 0) + factor * c


def _times_poly(
    buckets: dict[int, dict[int, int]], poly: dict[int, dict[int, int]], trunc: int | None
) -> dict[int, dict[int, int]]:
    """The buckets times the buckets ``poly``, to order ``trunc``, as new
    buckets: the product of :meth:`Series.__mul__`, one walk of ``buckets``
    per term of ``poly``."""
    out: dict[int, dict[int, int]] = {}
    for pd, bucket in poly.items():
        for pk, pc in bucket.items():
            _shift_walk(out, buckets, buckets, pk, pd, pc, trunc)
    return out


class SeriesComparison(NamedTuple):
    equal: bool
    exps: tuple[int, ...] | None
    left: int
    right: int


class _SubstitutionMapFields(NamedTuple):
    source: SeriesRing
    target: SeriesRing
    images: tuple[tuple[int, ...], ...]


class SubstitutionMap(_SubstitutionMapFields):
    """A monomial substitution: each source variable maps to one target monomial.

    Every way of building one (the constructor, ``_make``, ``_replace``,
    copying, unpickling) checks that the images fit both rings.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "SubstitutionMap":
        self = super().__new__(cls, *args, **kwargs)
        if len(self.images) != self.source.nvars:
            raise ValueError("one image per source variable required")
        for img in self.images:
            if len(img) != self.target.nvars:
                raise ValueError(f"image {img} has wrong arity for {self.target.names}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "SubstitutionMap":
        # The inherited `_make` (and so `_replace`) bypasses `__new__`.
        return cls(*iterable)

    def map_exps(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """The target exponents of the source monomial with exponents ``exps``."""
        if len(exps) != len(self.images):
            raise ValueError(f"exponent tuple {exps} has wrong arity for {self.source.names}")
        out = [0] * self.target.nvars
        for e, image in zip(exps, self.images):
            for k, v in enumerate(image):
                out[k] += e * v
        return tuple(out)
