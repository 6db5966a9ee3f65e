"""Catalog of the series = product identities and their exact verifier.

Each :class:`TheoremSpec` packages up to four independently computed sides:

* ``combinatorial`` — a sum of partition weights over a class, each part's
  monomial pushed through the statement's weight map;
* ``series`` — one or more summed families of Pochhammer-quotient terms;
* ``product`` — an infinite product, truncated;
* ``product-alt`` — an equivalent rewriting of the product when the catalog
  records one (different bases, same value).

The catalog is plain data: every Pochhammer factor, finite or infinite, in a
numerator or a denominator, is one :class:`PochFactor`, and every series
prefactor is a table of integer coefficients.  Six corollaries are derived
from a four-parameter statement rather than written out: ``g1-altsum`` and
``g2-altsum`` are the images of ``g1-four`` and ``g2-four`` under
``OMEGA_TO_ZQ``, and ``g1-xzq`` … ``p2-xzq`` those of ``g1-four`` …
``p2-four`` under ``OMEGA_TO_XZQ``: each factor's argument and base, and each
prefactor column, pushed through the map as exponents.  Only the statement is
shared; each side is still computed on its own, in the target ring.
``andrews-xzq`` and the ``*-oddparts`` and ``*-bg`` entries stay written out,
since their printed forms merge bases, e.g. ``(q²;q⁴)_n (q⁴;q⁴)_n =
(q²;q²)_2n``, and so are not literal images.

:func:`verify_spec` expands every available side to the requested truncation
and demands exact agreement pairwise.  A series family, and each of its partial
sums, is one Horner run (:func:`qseries.horner_sum`) over the levels of one
forward pass (:func:`qseries.sum_levels`), which stops at the first numerator
polynomial with no term at or below the truncation: no step polynomial has a
term of negative degree (:class:`TheoremSpec` refuses a family otherwise).  A
four-parameter series side also asserts that no summand has a negative
exponent; it reads the numerator polynomials, which is equivalent because
:class:`TheoremSpec` also refuses a four-parameter denominator with a negative
exponent (the proof is in :func:`series_side`).
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .partitions import (
    OMEGA_IDENTITY,
    PartitionClass,
    class_weight_series,
    conjugate,
    members_by_weight,
    omega_exponents,
    stats,
)
from .qseries import PochFactor, horner_sum, sum_levels, truncated_infinite_product
from .reporting import CheckReport, build_report
from .series import FOUR_PARAM, XZQ, Series, SeriesRing, SubstitutionMap


class UnknownTheorem(Exception):
    """No registered identity has the requested key."""


# Substitutions that collapse the four-variable weight onto marked statistics:
# per partition, the image collects x^(odd parts) z^(alternating sum) q^(weight),
# with the x- or z-mark dropped (or the z-mark flipped into the
# odd-index/even-index imbalance) depending on the map.
OMEGA_TO_XZQ = SubstitutionMap(
    FOUR_PARAM, XZQ, ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1))
)
OMEGA_TO_XQ = SubstitutionMap(
    FOUR_PARAM, XZQ, ((1, 0, 1), (-1, 0, 1), (1, 0, 1), (-1, 0, 1))
)
OMEGA_TO_ZQ = SubstitutionMap(
    FOUR_PARAM, XZQ, ((0, 1, 1), (0, 1, 1), (0, -1, 1), (0, -1, 1))
)
OMEGA_TO_BG = SubstitutionMap(
    FOUR_PARAM, XZQ, ((0, 1, 1), (0, -1, 1), (0, -1, 1), (0, 1, 1))
)


class SumFamily(NamedTuple):
    """``sum_n x^prefactor(n) * prod(factors)``: a monomial times a Pochhammer quotient.

    ``prefactor`` holds one triple per variable, the coefficients of
    ``C(n,2)``, ``n`` and ``1`` in that variable's exponent; the inverted
    ``factors`` are the denominators.
    """

    prefactor: tuple[tuple[int, int, int], ...]
    factors: tuple[PochFactor, ...]

    def _monomials(self, ring: SeriesRing) -> tuple[Series, Callable[[int], Series]]:
        """The prefactor at ``n = 0`` and its ratio from ``n`` to ``n+1``:
        ``n`` times the ``C(n,2)`` column plus the ``n`` column."""
        start = Series.monomial(ring, 1, tuple(c0 for _, _, c0 in self.prefactor))

        def ratio(n: int) -> Series:
            return Series.monomial(ring, 1, tuple(c2 * n + c1 for c2, c1, _ in self.prefactor))

        return start, ratio

    def levels(
        self, ring: SeriesRing, trunc: int, count: int | None = None
    ) -> list[tuple[Series, list[tuple]]]:
        """The family's first ``count`` Horner levels ``(P_n, delta_n)`` (all
        by default) to order ``trunc``, from its forward pass, which runs no
        further than that."""
        return list(islice(sum_levels(*self._monomials(ring), self.factors, trunc), count))


class _TheoremSpecFields(NamedTuple):
    key: str
    description: str
    partition_class: PartitionClass | None
    weight_map: SubstitutionMap
    series: tuple[SumFamily, ...]
    product: tuple[PochFactor, ...]
    product_alt: tuple[PochFactor, ...] | None = None


class TheoremSpec(_TheoremSpecFields):
    """One catalog statement and the data of each of its sides.

    Every side lives in :attr:`ring`, the weight map's target.  Every way of
    building one (the constructor, ``_make``, ``_replace``, copying,
    unpickling) refuses a factor or prefactor without one entry per variable
    of that ring, a product factor with a ``count``, a series factor without
    one or with ``alpha < 1`` or ``beta < 0``, and a series family whose
    summation could not stop at the truncation.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "TheoremSpec":
        self = super().__new__(cls, *args, **kwargs)
        nvars, products = self.ring.nvars, self.product + (self.product_alt or ())
        factors = products + tuple(f for fam in self.series for f in fam.factors)
        if any(len(fam.prefactor) != nvars for fam in self.series) or any(
            len(e) != nvars for f in factors for e in (f.arg_exps, f.base_exps)
        ):
            raise ValueError(f"{self.key}: every factor and prefactor needs {nvars} entries")
        if any(f.count is not None for f in products):
            raise ValueError(f"{self.key}: a product factor has a count")
        # The forward pass needs every term of every step polynomial r_n at
        # nonnegative degree.  r_n is the prefactor ratio, of degree A*n + B
        # (A, B the graded sums of the C(n,2) and n columns), times the new
        # numerator binomials; with A >= 0 and bases of positive degree its
        # degrees only grow with n, so checking r_0 covers every n.  With
        # A = B = 0 its lowest degree stays 0 and the pass would never stop.
        degree = self.ring.degree
        for fam in self.series:
            if any(f.count is None for f in fam.factors):
                raise ValueError(f"{self.key}: a series factor has no count")
            if any(f.count[0] < 1 or f.count[1] < 0 for f in fam.factors):
                raise ValueError(f"{self.key}: a series factor count needs alpha >= 1, beta >= 0")
            a = sum(w * c2 for w, (c2, _, _) in zip(self.ring.weights, fam.prefactor))
            b = sum(w * c1 for w, (_, c1, _) in zip(self.ring.weights, fam.prefactor))
            if a < 0 or a == b == 0:
                verb = "decreases" if a < 0 else "never grows"
                raise ValueError(f"{self.key}: prefactor degree step {a}n + {b} {verb} in n")
            if any(degree(f.base_exps) < 1 for f in fam.factors):
                raise ValueError(f"{self.key}: every factor base needs positive degree")
            # The summand nonnegativity check of a four-parameter family reads
            # the numerator polynomials, which holds when every denominator
            # binomial is 1 - m with m of nonnegative exponents (see
            # series_side).
            if self.ring == FOUR_PARAM and any(
                min(f.arg_exps + f.base_exps) < 0 for f in fam.factors if f.inverted
            ):
                raise ValueError(f"{self.key}: a denominator has a negative exponent")
            nums = [f for f in fam.factors if not f.inverted]
            low = b + sum(min(0, degree(e)) for f in nums for e in f.binomials(1))
            if low < 0:
                raise ValueError(
                    f"{self.key}: the first step polynomial has a term of degree {low},"
                    " so the summand degree decreases in n"
                )
        return self

    @property
    def ring(self) -> SeriesRing:
        return self.weight_map.target

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "TheoremSpec":
        # The inherited `_make` (and so `_replace`) bypasses `__new__`.
        return cls(*iterable)


def combinatorial_side(spec: TheoremSpec, trunc: int) -> Series:
    """Sum of the mapped weights over the statement's class."""
    if spec.partition_class is None:
        raise ValueError(f"{spec.key} has no combinatorial side")
    return class_weight_series(spec.partition_class, trunc, spec.weight_map)


def series_side(
    spec: TheoremSpec,
    trunc: int,
    nonneg_failures: list[str] | None = None,
) -> Series:
    """The sum of the series families to order ``trunc``, each one
    :func:`~sipq.qseries.horner_sum` over its levels ``(P_n, delta_n)``.

    For a four-parameter spec, each summand ``T_n = P_n / D_n`` whose
    numerator polynomial ``P_n`` has a negative exponent at degree ``<=
    trunc`` is named in ``nonneg_failures``, when given.  That equals
    ``T_n.has_negative_exponent()`` when every denominator binomial is ``1 -
    m`` with ``m`` of nonnegative exponents and positive degree, which
    :class:`TheoremSpec` enforces.  Then ``1/D_n`` has constant term 1 and
    nonnegative exponents, and its other terms have positive degree.  If
    ``P_n`` has nonnegative exponents below the truncation, so has ``T_n``.
    Otherwise, in some variable, let ``e < 0`` be the least exponent among the
    terms of ``P_n`` at degree ``<= trunc``, and ``d`` the least degree among
    those terms with exponent ``e``.  A term of ``T_n`` with exponent ``e`` and
    degree ``d`` comes from a term of ``P_n`` (exponent ``>= e``, degree ``<=
    d``, so among those terms) times a term of ``1/D_n`` (exponent and degree
    ``>= 0``).  The exponents add up to ``e`` and the degrees to ``d``, so the
    first term has exponent ``e`` and degree ``d``, and the second is the
    constant 1.  That slice of ``T_n`` is the one of ``P_n``, which is not
    zero.
    """
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    if not spec.series:
        raise ValueError(f"{spec.key} has no series side")
    sums = []
    for fam in spec.series:
        levels = fam.levels(spec.ring, trunc)
        if nonneg_failures is not None and spec.ring is FOUR_PARAM:
            nonneg_failures.extend(
                f"summand n={n}: negative exponent in expansion"
                for n, (poly, _) in enumerate(levels)
                if poly.has_negative_exponent()
            )
        sums.append(horner_sum(spec.ring, trunc, levels))
    return Series.zero(spec.ring, trunc).plus(sums)


def product_side(spec: TheoremSpec, trunc: int, alt: bool = False) -> Series:
    factors = spec.product_alt if alt else spec.product
    if factors is None:
        raise ValueError(f"{spec.key} has no alternate product")
    return truncated_infinite_product(spec.ring, factors, trunc)


def _slice_text(s: Series, degree: int) -> str:
    return str(sorted(s.degree_slice(degree).items()))


def verify_spec(spec: TheoremSpec, trunc: int) -> CheckReport:
    """Expand every available side to ``trunc`` and compare them pairwise."""
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")

    def outcomes() -> Iterator[Sequence[str]]:
        sides: list[tuple[str, Series]] = []
        if spec.partition_class is not None:
            sides.append(("combinatorial", combinatorial_side(spec, trunc)))
        if spec.series:
            nonneg: list[str] = []  # the summand nonnegativity assertion
            sides.append(("series", series_side(spec, trunc, nonneg_failures=nonneg)))
            yield nonneg
        sides.append(("product", product_side(spec, trunc)))
        if spec.product_alt is not None:
            sides.append(("product-alt", product_side(spec, trunc, alt=True)))
        for (ln, ls), (rn, rs) in combinations(sides, 2):
            cmp = ls.equal_to(rs)
            if cmp.equal:
                yield ()
                continue
            d = spec.ring.degree(cmp.exps)
            yield (
                f"{ln} != {rn}: first difference at {cmp.exps}"
                f" ({cmp.left} vs {cmp.right}); degree-{d} slices"
                f" {_slice_text(ls, d)} vs {_slice_text(rs, d)}",
            )

    return build_report(f"identity[{spec.key}]", outcomes())


# -- the catalog ---------------------------------------------------------------

_Q4 = (1, 1, 1, 1)
_AB = (1, 1, 0, 0)
_DEN_AB = PochFactor(1, _AB, _Q4, (1, 0), inverted=True)
_DEN_AB1 = PochFactor(1, _AB, _Q4, (1, 1), inverted=True)
_DEN_Q = PochFactor(1, _Q4, _Q4, (1, 0), inverted=True)
# The denominators (q²;q²)_2n and (q²;q²)_(2n+1).
_DEN_QQ_2N = PochFactor(1, (0, 0, 2), (0, 0, 2), (2, 0), inverted=True)
_DEN_QQ_2N1 = PochFactor(1, (0, 0, 2), (0, 0, 2), (2, 1), inverted=True)


def _image(
    spec: TheoremSpec,
    key: str,
    description: str,
    weight_map: SubstitutionMap,
    product_alt: tuple[PochFactor, ...] | None = None,
) -> TheoremSpec:
    """The corollary of the four-parameter ``spec`` under ``weight_map``: the
    same class, with each factor's argument and base and each prefactor column
    pushed through the map, built through the :class:`TheoremSpec` constructor."""
    map_exps = weight_map.map_exps

    def mapped(factors: tuple[PochFactor, ...]) -> tuple[PochFactor, ...]:
        return tuple(
            f._replace(arg_exps=map_exps(f.arg_exps), base_exps=map_exps(f.base_exps))
            for f in factors
        )

    return TheoremSpec(
        key=key,
        description=description,
        partition_class=spec.partition_class,
        weight_map=weight_map,
        series=tuple(
            # The C(n,2), n and 1 columns map like exponents.
            SumFamily(tuple(zip(*map(map_exps, zip(*fam.prefactor)))), mapped(fam.factors))
            for fam in spec.series
        ),
        product=mapped(spec.product),
        product_alt=product_alt,
    )


def _build_registry() -> tuple[TheoremSpec, ...]:
    g1 = TheoremSpec(
        key="g1-four",
        description=(
            "distinct parts, even-indexed parts even: four-parameter weight"
            " series and product"
        ),
        partition_class=PartitionClass.G1,
        weight_map=OMEGA_IDENTITY,
        series=(
            SumFamily(
                ((1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)),
                (PochFactor(-1, (0, 1, 0, 0), _Q4, (1, 0)), _DEN_AB, _DEN_Q),
            ),
        ),
        product=(
            PochFactor(-1, (1, 0, 0, 0), _Q4),
            PochFactor(1, _AB, _Q4, inverted=True),
        ),
    )
    g2 = TheoremSpec(
        key="g2-four",
        description=(
            "distinct parts, odd-indexed parts even: four-parameter weight"
            " series and product"
        ),
        partition_class=PartitionClass.G2,
        weight_map=OMEGA_IDENTITY,
        series=(
            SumFamily(
                ((1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 0, 0)),
                (PochFactor(-1, (0, 0, -1, 0), _Q4, (1, 0)), _DEN_AB, _DEN_Q),
            ),
        ),
        product=(
            PochFactor(-1, (1, 1, 1, 0), _Q4),
            PochFactor(1, _AB, _Q4, inverted=True),
        ),
    )
    p1 = TheoremSpec(
        key="p1-four",
        description=(
            "even-indexed parts even: four-parameter weight series (two"
            " families) and product"
        ),
        partition_class=PartitionClass.P1,
        weight_map=OMEGA_IDENTITY,
        series=(
            SumFamily(
                ((0, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)),
                (PochFactor(-1, (0, -1, -1, -1), _Q4, (1, 0)), _DEN_AB, _DEN_Q),
            ),
            SumFamily(
                ((0, 1, 1), (0, 1, 1), (0, 1, 0), (0, 1, 0)),
                (PochFactor(-1, (1, 0, 0, 0), _Q4, (1, 0)), _DEN_AB1, _DEN_Q),
            ),
        ),
        product=(
            PochFactor(-1, (1, 0, 0, 0), _Q4),
            PochFactor(1, _AB, _Q4, inverted=True),
            PochFactor(1, _Q4, _Q4, inverted=True),
        ),
    )
    p2 = TheoremSpec(
        key="p2-four",
        description=(
            "odd-indexed parts even: four-parameter weight series (two"
            " families) and product"
        ),
        partition_class=PartitionClass.P2,
        weight_map=OMEGA_IDENTITY,
        series=(
            SumFamily(
                ((0, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)),
                (PochFactor(-1, (0, 0, 0, -1), _Q4, (1, 0)), _DEN_AB, _DEN_Q),
            ),
            SumFamily(
                ((0, 1, 1), (0, 1, 1), (0, 1, 0), (0, 1, 0)),
                (PochFactor(-1, (1, 1, 1, 0), _Q4, (1, 0)), _DEN_AB1, _DEN_Q),
            ),
        ),
        product=(
            PochFactor(-1, (1, 1, 1, 0), _Q4),
            PochFactor(1, _AB, _Q4, inverted=True),
            PochFactor(1, _Q4, _Q4, inverted=True),
        ),
    )
    return (
        g1,
        g2,
        p1,
        p2,
        TheoremSpec(
            key="boulet-p",
            description="all partitions: four-parameter weight product",
            partition_class=PartitionClass.ALL,
            weight_map=OMEGA_IDENTITY,
            series=(),
            product=(
                PochFactor(-1, (1, 0, 0, 0), _Q4),
                PochFactor(-1, (1, 1, 1, 0), _Q4),
                PochFactor(1, (1, 1, 0, 0), _Q4, inverted=True),
                PochFactor(1, (1, 0, 1, 0), _Q4, inverted=True),
                PochFactor(1, _Q4, _Q4, inverted=True),
            ),
        ),
        TheoremSpec(
            key="andrews-xzq",
            description=(
                "all partitions: odd-part count and alternating sum marked, as"
                " a three-variable product"
            ),
            partition_class=PartitionClass.ALL,
            weight_map=OMEGA_TO_XZQ,
            series=(),
            product=(
                PochFactor(-1, (1, 1, 1), (0, 0, 2)),
                PochFactor(1, (2, 0, 2), (0, 0, 4), inverted=True),
                PochFactor(1, (0, 2, 2), (0, 0, 4), inverted=True),
                PochFactor(1, (0, 0, 4), (0, 0, 4), inverted=True),
            ),
        ),
        TheoremSpec(
            key="g1-oddparts",
            description=(
                "distinct parts, even-indexed parts even: odd-part count marked"
            ),
            partition_class=PartitionClass.G1,
            weight_map=OMEGA_TO_XQ,
            series=(
                SumFamily(
                    ((0, 1, 0), (0, 0, 0), (4, 1, 0)),
                    (PochFactor(-1, (-1, 0, 1), (0, 0, 4), (1, 0)), _DEN_QQ_2N),
                ),
            ),
            product=(
                PochFactor(-1, (1, 0, 1), (0, 0, 4)),
                PochFactor(1, (0, 0, 2), (0, 0, 4), inverted=True),
            ),
        ),
        TheoremSpec(
            key="g2-oddparts",
            description=(
                "distinct parts, odd-indexed parts even: odd-part count marked"
            ),
            partition_class=PartitionClass.G2,
            weight_map=OMEGA_TO_XQ,
            series=(
                SumFamily(
                    ((0, 1, 0), (0, 0, 0), (4, 3, 0)),
                    (PochFactor(-1, (-1, 0, -1), (0, 0, 4), (1, 0)), _DEN_QQ_2N),
                ),
            ),
            product=(
                PochFactor(-1, (1, 0, 3), (0, 0, 4)),
                PochFactor(1, (0, 0, 2), (0, 0, 4), inverted=True),
            ),
        ),
        _image(
            g1,
            "g1-altsum",
            (
                "distinct parts, even-indexed parts even: alternating sum"
                " marked, with an equivalent two-base product"
            ),
            OMEGA_TO_ZQ,
            product_alt=(
                PochFactor(1, (0, 1, 1), (0, 0, 4), inverted=True),
                PochFactor(1, (0, 2, 6), (0, 0, 8), inverted=True),
            ),
        ),
        _image(
            g2,
            "g2-altsum",
            (
                "distinct parts, odd-indexed parts even: alternating sum"
                " marked, with an equivalent two-base product"
            ),
            OMEGA_TO_ZQ,
            product_alt=(
                PochFactor(1, (0, 1, 3), (0, 0, 4), inverted=True),
                PochFactor(1, (0, 2, 2), (0, 0, 8), inverted=True),
            ),
        ),
        _image(
            g1,
            "g1-xzq",
            (
                "distinct parts, even-indexed parts even: odd-part count and"
                " alternating sum marked"
            ),
            OMEGA_TO_XZQ,
        ),
        _image(
            g2,
            "g2-xzq",
            (
                "distinct parts, odd-indexed parts even: odd-part count and"
                " alternating sum marked"
            ),
            OMEGA_TO_XZQ,
        ),
        _image(
            p1,
            "p1-xzq",
            (
                "even-indexed parts even: odd-part count and alternating sum"
                " marked (two series families)"
            ),
            OMEGA_TO_XZQ,
        ),
        _image(
            p2,
            "p2-xzq",
            (
                "odd-indexed parts even: odd-part count and alternating sum"
                " marked (two series families)"
            ),
            OMEGA_TO_XZQ,
        ),
        TheoremSpec(
            key="g1-bg",
            description=(
                "distinct parts, even-indexed parts even: odd-index/even-index"
                " imbalance marked"
            ),
            partition_class=PartitionClass.G1,
            weight_map=OMEGA_TO_BG,
            series=(
                SumFamily(
                    ((0, 0, 0), (0, 1, 0), (4, 1, 0)),
                    (PochFactor(-1, (0, -1, 1), (0, 0, 4), (1, 0)), _DEN_QQ_2N),
                ),
            ),
            product=(
                PochFactor(-1, (0, 1, 1), (0, 0, 4)),
                PochFactor(1, (0, 0, 2), (0, 0, 4), inverted=True),
            ),
        ),
        TheoremSpec(
            key="g2-bg",
            description=(
                "distinct parts, odd-indexed parts even: odd-index/even-index"
                " imbalance marked"
            ),
            partition_class=PartitionClass.G2,
            weight_map=OMEGA_TO_BG,
            series=(
                SumFamily(
                    ((0, 0, 0), (0, -1, 0), (4, 3, 0)),
                    (PochFactor(-1, (0, 1, -1), (0, 0, 4), (1, 0)), _DEN_QQ_2N),
                ),
            ),
            product=(
                PochFactor(-1, (0, -1, 3), (0, 0, 4)),
                PochFactor(1, (0, 0, 2), (0, 0, 4), inverted=True),
            ),
        ),
        TheoremSpec(
            key="p1-bg",
            description=(
                "even-indexed parts even: odd-index/even-index imbalance marked"
                " (two series families)"
            ),
            partition_class=PartitionClass.P1,
            weight_map=OMEGA_TO_BG,
            series=(
                SumFamily(
                    ((0, 0, 0), (0, 0, 0), (0, 4, 0)),
                    (PochFactor(-1, (0, 1, -3), (0, 0, 4), (1, 0)), _DEN_QQ_2N),
                ),
                SumFamily(
                    ((0, 0, 0), (0, 0, 0), (0, 4, 2)),
                    (PochFactor(-1, (0, 1, 1), (0, 0, 4), (1, 0)), _DEN_QQ_2N1),
                ),
            ),
            product=(
                PochFactor(-1, (0, 1, 1), (0, 0, 4)),
                PochFactor(1, (0, 0, 2), (0, 0, 2), inverted=True),
            ),
        ),
        TheoremSpec(
            key="p2-bg",
            description=(
                "odd-indexed parts even: odd-index/even-index imbalance marked"
                " (two series families)"
            ),
            partition_class=PartitionClass.P2,
            weight_map=OMEGA_TO_BG,
            series=(
                SumFamily(
                    ((0, 0, 0), (0, 0, 0), (0, 4, 0)),
                    (PochFactor(-1, (0, -1, -1), (0, 0, 4), (1, 0)), _DEN_QQ_2N),
                ),
                SumFamily(
                    ((0, 0, 0), (0, 0, 0), (0, 4, 2)),
                    (PochFactor(-1, (0, -1, 3), (0, 0, 4), (1, 0)), _DEN_QQ_2N1),
                ),
            ),
            product=(
                PochFactor(-1, (0, -1, 3), (0, 0, 4)),
                PochFactor(1, (0, 0, 2), (0, 0, 2), inverted=True),
            ),
        ),
    )


_REGISTRY = _build_registry()
_BY_KEY = {spec.key: spec for spec in _REGISTRY}


def registry() -> list[TheoremSpec]:
    """All registered identities, in catalog order."""
    return list(_REGISTRY)


def spec_by_key(key: str) -> TheoremSpec:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise UnknownTheorem(key) from None


# -- telescoping partial sums ---------------------------------------------------


def verify_partial_sums(family: PartitionClass, n_max: int, trunc: int) -> CheckReport:
    """Partial sums of the two-family series match their closed quotient form.

    Checks ``F(N) = T(N)`` for each ``N <= n_max`` and the telescoping step
    ``T(N+1) - T(N) = F(N+1) - F(N)``.  ``T(N) = (-x;Q)_N / ((ab;Q)_(N+1)
    (Q;Q)_N)``, ``x = a`` for p1 and ``abc`` for p2, is built from products
    alone, each step one :meth:`Series.times_run` of one numerator binomial
    and two divisions, so the work is linear in ``n_max``.
    """
    if family not in (PartitionClass.P1, PartitionClass.P2):
        raise ValueError("partial sums are recorded for classes p1 and p2")
    if n_max < 0 or trunc < 0:
        raise ValueError("n_max and trunc must be nonnegative")
    spec = _BY_KEY[f"{family.value}-four"]
    num = spec.product[0]

    def outcomes() -> Iterator[Sequence[str]]:
        # F(N) is the Horner run over each family's first N + 1 levels; a family
        # whose forward pass has stopped adds nothing more below the truncation.
        levels = [fam.levels(FOUR_PARAM, trunc, n_max + 1) for fam in spec.series]
        zero = Series.zero(FOUR_PARAM, trunc)
        f = zero
        t = Series.one(FOUR_PARAM, trunc).times_factor(1, _DEN_AB.argument(0), inverted=True)
        for upto in range(n_max + 1):
            prev_f, prev_t = f, t
            f = zero.plus(horner_sum(FOUR_PARAM, trunc, fam[: upto + 1]) for fam in levels)
            if upto:
                t = t.times_run((
                    ("times", -1, num.argument(upto - 1)),  # 1 + x Q^(N-1)
                    ("over", 1, _DEN_AB.argument(upto)),  # ab Q^N
                    ("over", 1, _DEN_Q.argument(upto - 1)),  # Q^N
                ))
            cmp = f.equal_to(t)
            yield () if cmp.equal else (
                f"N={upto}: partial sum differs from closed form at {cmp.exps}"
                f" ({cmp.left} vs {cmp.right})",
            )
            if upto:
                step = (t - prev_t).equal_to(f - prev_f)
                yield () if step.equal else (
                    f"N={upto}: step increments differ at {step.exps}"
                    f" ({step.left} vs {step.right})",
                )

    return build_report(f"partial-sums[{family.value}]", outcomes(), {"n_max": n_max})


# -- statistics consistency ------------------------------------------------------


def verify_substitution_consistency(weight_max: int) -> list[CheckReport]:
    """Per-partition agreement of substituted weights with direct statistics,
    one report for the ``xzq`` map, then one for ``bg``.

    For the ``xzq`` map the image of the weight monomial must be
    ``x^(odd-part count) z^(alternating sum) q^(weight)``; for ``bg`` the
    z-exponent must be the odd-index/even-index imbalance of the odd parts.
    The conjugation law (odd-part count of the transpose equals the
    alternating sum) is checked alongside, since the corollaries rely on it.
    One pass of the row recursion lists the partitions of weight at most
    ``weight_max`` for both maps: each partition's statistics, four-parameter
    exponents and conjugation law are computed once, and only the map and the
    comparison run per map.
    """
    if weight_max < 0:
        raise ValueError("weight_max must be nonnegative")
    rows = [
        (lam, stats(lam), omega_exponents(lam), stats(conjugate(lam)).odd_parts)
        for members in members_by_weight(PartitionClass.ALL, weight_max)
        for lam in members
    ]

    def outcomes(weight_map: SubstitutionMap, expected: Callable) -> Iterator[Sequence[str]]:
        for lam, st, omega, transpose_odd_parts in rows:
            image, want = weight_map.map_exps(omega), expected(st)
            yield () if image == want else (f"{lam!r}: image {image}, statistics say {want}",)
            yield () if transpose_odd_parts == st.alt_sum else (
                f"{lam!r}: transpose odd-part count != alternating sum",
            )

    maps = (
        ("xzq", OMEGA_TO_XZQ, lambda st: (st.odd_parts, st.alt_sum, st.weight)),
        ("bg", OMEGA_TO_BG, lambda st: (0, st.bg_rank, st.weight)),
    )
    return [
        build_report(f"substitution[{name}]", outcomes(wmap, expected), {"weight_max": weight_max})
        for name, wmap, expected in maps
    ]
