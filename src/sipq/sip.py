"""Skeleton-plus-padding structure of the parity-constrained classes.

Every member of one of the four constrained classes splits uniquely into a
basis member ("skeleton") of the same length plus a weakly decreasing stack of
even parts ("padding").  The split is computed bottom-up: the last skeleton
row is the row rule's last part (1 or 2) of the member's last-part parity,
and each higher row exceeds the one below by the single admissible gap that
matches the parity of the corresponding part.  This module implements the
split, its inverse, an exhaustive verifier over one walk of the class's
members, and the one generating-function assembly the structure yields, from
skeleton weights summed bottom-up, the way the split forces a skeleton, with
no partition built, through any weight map, and one comparison of it with the
row recursion over members.  Every check takes the class alone: its basis is
``cls.basis`` and padding parts are even.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import (
    OMEGA_IDENTITY,
    Partition,
    PartitionClass,
    basis_members_of_length,
    basis_weight_sums,
    class_weight_series,
    is_member,
    members_by_weight,
)
from .qseries import PochFactor, horner_sum
from .reporting import CheckReport
from .series import FOUR_PARAM, SINGLE_Q, Series, SeriesError, SubstitutionMap


class SipError(Exception):
    """Base class for structural decomposition failures."""


class NotInClass(SipError):
    """The partition is not a member of the requested class or basis."""


class LengthViolation(SipError):
    """The padding has more rows than the skeleton."""


class NonEvenMu(SipError):
    """The padding contains an odd part."""


class InternalError(SipError):
    """A derived skeleton/padding pair failed its own invariants."""


#: The classes with a basis: those whose rule has a parity row, in enum order.
DECOMPOSABLE = tuple(
    cls for cls in PartitionClass if not cls.is_basis and cls.rule.even_row is not None
)


def _require_decomposable(cls: PartitionClass) -> None:
    if cls not in DECOMPOSABLE:
        raise ValueError(f"no basis structure for class {cls.value!r}")


class SipDecomposition(NamedTuple):
    """A partition split as ``lam[i] = beta[i] + mu[i]`` (``mu`` zero-padded)."""

    beta: Partition
    mu: Partition
    #: Every basis pads with even parts; a constant, not a constructor field.
    modulus = 2


def decompose(cls: PartitionClass, lam: Partition) -> SipDecomposition:
    """Split a class member into its skeleton and even padding.

    The skeleton is forced row by row from the bottom, so the result is the
    unique valid split; :class:`InternalError` therefore signals a bug in the
    basis definition rather than bad input.
    """
    _require_decomposable(cls)
    if not is_member(cls, lam):
        raise NotInClass(f"{lam!r} is not in class {cls.value!r}")
    if not lam:
        return SipDecomposition(Partition(), Partition())
    n = len(lam)
    beta = [0] * n
    beta[-1] = cls.rule.last_part(lam[-1])
    gaps = cls.rule.gaps
    for i in range(n - 2, -1, -1):
        matches = [beta[i + 1] + g for g in gaps if (beta[i + 1] + g) % 2 == lam[i] % 2]
        if len(matches) != 1:
            raise InternalError(f"gap choice not unique at row {i + 1} of {lam!r}")
        beta[i] = matches[0]
    diffs = [a - b for a, b in zip(lam, beta)]
    if any(d < 0 for d in diffs):
        raise InternalError(f"skeleton exceeds {lam!r} at some row")
    if any(d % 2 for d in diffs):
        raise InternalError(f"padding for {lam!r} has an odd part")
    if any(diffs[i] < diffs[i + 1] for i in range(n - 1)):
        raise InternalError(f"padding for {lam!r} is not weakly decreasing")
    while diffs and diffs[-1] == 0:
        diffs.pop()
    beta_p = Partition(tuple(beta))
    if not is_member(cls.basis, beta_p):
        raise InternalError(f"derived skeleton {beta_p!r} is outside the basis")
    return SipDecomposition(beta_p, Partition(tuple(diffs)))


def compose(cls: PartitionClass, beta: Partition, mu: Partition) -> Partition:
    """Rebuild the class member from a skeleton and padding (inverse of
    :func:`decompose`)."""
    _require_decomposable(cls)
    if not is_member(cls.basis, beta):
        raise NotInClass(f"{beta!r} is not in the basis of {cls.value!r}")
    if len(mu) > len(beta):
        raise LengthViolation(f"padding {mu!r} is longer than skeleton {beta!r}")
    if any(p % 2 for p in mu):
        raise NonEvenMu(f"padding {mu!r} has an odd part")
    parts = [b + (mu[i] if i < len(mu) else 0) for i, b in enumerate(beta)]
    lam = Partition(tuple(parts))
    if not is_member(cls, lam):
        raise InternalError(f"composed partition {lam!r} left class {cls.value!r}")
    return lam


def _split_count(lam: Partition, skeletons: tuple[Partition, ...]) -> int:
    """Number of valid (skeleton, padding) splits of ``lam`` among
    ``skeletons``, the basis members of its length — must be 1."""
    count = 0
    for beta in skeletons:
        diffs = [a - b for a, b in zip(lam, beta)]
        if any(d < 0 or d % 2 for d in diffs):
            continue
        if any(diffs[i] < diffs[i + 1] for i in range(len(diffs) - 1)):
            continue
        count += 1
    return count


def verify_sip_property(cls: PartitionClass, weight_max: int) -> CheckReport:
    """Round-trip and uniqueness of the split for every member up to a weight.

    The members come from one walk of the class, weight by weight; a member
    whose split or rebuild raises :class:`SipError` fails alone.  Uniqueness
    is checked independently of :func:`decompose` by re-composing every basis
    member of matching length and counting the valid splits.  The
    skeletons of each length are built once, up to ``weight_max``, and serve
    every member of that length.  The count is still exhaustive: a valid
    skeleton sits under ``lam`` row by row, so its weight cannot exceed
    ``|lam|``, and a heavier one leaves a negative difference and is rejected.
    """
    _require_decomposable(cls)
    if weight_max < 0:
        raise ValueError("weight_max must be nonnegative")
    failures: list[str] = []
    checks = 0
    skeletons: dict[int, tuple[Partition, ...]] = {}
    for members in members_by_weight(cls, weight_max):
        for lam in members:
            checks += 1
            try:
                dec = decompose(cls, lam)
                if len(dec.beta) != len(lam):
                    failures.append(f"{lam!r}: skeleton length {len(dec.beta)} != {len(lam)}")
                back = compose(cls, dec.beta, dec.mu)
                if back != lam:
                    failures.append(f"{lam!r}: round-trip gave {back!r}")
            except SipError as exc:
                failures.append(f"{lam!r}: {type(exc).__name__}: {exc}")
            n = len(lam)
            if n not in skeletons:
                skeletons[n] = basis_members_of_length(cls.basis, n, weight_max)
            n_splits = _split_count(lam, skeletons[n])
            if n_splits != 1:
                failures.append(f"{lam!r}: {n_splits} valid splits, expected 1")
    return CheckReport(
        f"sip-property[{cls.value}]",
        not failures,
        checks,
        tuple(failures),
        {"weight_max": weight_max},
    )


# Every part's monomial to q^(its size): a member maps to q^(its weight).
_OMEGA_TO_Q = SubstitutionMap(FOUR_PARAM, SINGLE_Q, ((1,), (1,), (1,), (1,)))


def _divisor(m: int) -> tuple[int, ...]:
    """Four-parameter exponents of the monomial of ``d_m``, for ``m >= 1``:
    binomial ``(m-1)//2`` of ``(ab; Q)`` for odd ``m`` and of ``(Q; Q)`` for
    even ``m``, ``Q = abcd``."""
    run = PochFactor(1, (1, 1, 0, 0) if m % 2 else (1, 1, 1, 1), (1, 1, 1, 1))
    return run.argument((m - 1) // 2)


def sip_gf_four_parameter(
    cls: PartitionClass, trunc: int, weight_map: SubstitutionMap = OMEGA_IDENTITY
) -> Series:
    """Assemble the class's four-parameter weight series, pushed through
    ``weight_map``, from its basis: ``sum_m B_m / (d_1 ... d_m)``.

    Every ``B_m`` comes from one :func:`~sipq.partitions.basis_weight_sums`
    call, one bottom-up skeleton pass per parity of ``m``, and the product of
    the ``d_j`` (see :func:`_divisor`) is ``(ab;Q)_n (Q;Q)_n`` for ``m = 2n``
    and ``(ab;Q)_{n+1} (Q;Q)_n`` for ``m = 2n+1``, ``Q = abcd``.  The sum is
    one :func:`~sipq.qseries.horner_sum` over the levels ``(B_m, d_m)``, from
    the top length down, ``total = (total + B_m) / d_m``, each division on the
    mapped exponents.
    ``weight_map`` is refused unless, as for :func:`class_weight_series`, it
    maps from the four-parameter ring with every image of degree 1; a
    skeleton's mapped degree is then its weight, at least its length, so
    ``B_m`` needs only the members of weight at most ``trunc`` and lengths
    beyond ``trunc`` cannot contribute.
    """
    _require_decomposable(cls)
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    sums = basis_weight_sums(cls.basis, trunc, trunc, weight_map)
    levels = [
        (sums[m], [(1, weight_map.map_exps(_divisor(m)))] if m else []) for m in range(trunc + 1)
    ]
    return horner_sum(weight_map.target, trunc, levels)


def _assembly_report(
    name: str, cls: PartitionClass, trunc: int, weight_map: SubstitutionMap
) -> CheckReport:
    """Compare the skeleton assembly with the row recursion, which uses no
    skeleton, degree by degree, both pushed through ``weight_map``; a
    :class:`SeriesError` raised while building or reading either fails the
    report, as its last failure line."""
    failures: list[str] = []
    try:
        assembled = sip_gf_four_parameter(cls, trunc, weight_map)
        summed = class_weight_series(cls, trunc, weight_map)
        for d in range(trunc + 1):
            left, right = assembled.degree_slice(d), summed.degree_slice(d)
            if left != right:
                failures.append(f"degree {d}: assembly {left} != row recursion {right}")
    except SeriesError as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    return CheckReport(f"{name}[{cls.value}]", not failures, trunc + 1, tuple(failures))


def sip_gf_single_variable(cls: PartitionClass, weight_max: int) -> CheckReport:
    """The assembly against the row recursion in ``q`` alone, where every
    ``d_m`` is ``1 - q^{2m}`` and each degree's coefficient counts members."""
    return _assembly_report("sip-gf-single", cls, weight_max, _OMEGA_TO_Q)


def check_sip_gf_four_parameter(cls: PartitionClass, trunc: int) -> CheckReport:
    """The assembly against the row recursion in the four parameters."""
    return _assembly_report("sip-gf-four", cls, trunc, OMEGA_IDENTITY)
