"""Integer partitions, their statistics, and parity-constrained classes.

A partition is a weakly decreasing tuple of positive integers.  Filling its
rows with two alternating letters, ``a b a b ...`` on odd-indexed rows and
``c d c d ...`` on even-indexed rows, assigns each partition a monomial
``a^A b^B c^C d^D`` (the four-parameter weight).  Everything in this module
is exhaustive and exact; the enumerators here are the ground-truth oracle
for all generating-function computations in the rest of the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .series import FOUR_PARAM, Series


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...] | list[int] = ()) -> "Partition":
        pts = tuple(int(p) for p in parts)
        for i, p in enumerate(pts):
            if p <= 0:
                raise ValueError(f"parts must be positive integers, got {p}")
            if i > 0 and pts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {pts}")
        return super().__new__(cls, pts)

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self))})"


@dataclass(frozen=True)
class PartitionStats:
    """Basic statistics of a single partition."""

    weight: int
    length: int
    alt_sum: int
    odd_parts: int
    bg_rank: int


@dataclass(frozen=True)
class OmegaExponents:
    """Exponents of the four-parameter weight monomial a^A b^B c^C d^D."""

    a: int
    b: int
    c: int
    d: int

    def vector(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


class PartitionClass(enum.Enum):
    """Tags for the partition families the package works with.

    G1/G2 are strict partitions whose even-indexed (resp. odd-indexed) parts
    are even; P1/P2 drop the strictness requirement.  Each has a basis
    subfamily with bounded gaps and smallest part 1 or 2.
    """

    ALL = "all"
    STRICT = "strict"
    G1 = "g1"
    G2 = "g2"
    P1 = "p1"
    P2 = "p2"
    BASIS_G1 = "basis-g1"
    BASIS_G2 = "basis-g2"
    BASIS_P1 = "basis-p1"
    BASIS_P2 = "basis-p2"

    @property
    def is_basis(self) -> bool:
        return self in _BASIS_TO_CLASS

    @property
    def base_class(self) -> "PartitionClass":
        """For a basis tag, the class it is a basis of; otherwise itself."""
        return _BASIS_TO_CLASS.get(self, self)

    @property
    def basis(self) -> "PartitionClass":
        """For one of G1/G2/P1/P2, the corresponding basis tag."""
        try:
            return _CLASS_TO_BASIS[self]
        except KeyError:
            raise ValueError(f"{self} has no associated basis") from None

    @property
    def gaps(self) -> tuple[int, int]:
        """Allowed successive differences within basis members."""
        basis = self if self.is_basis else self.basis
        if basis in (PartitionClass.BASIS_G1, PartitionClass.BASIS_G2):
            return (1, 2)
        return (0, 1)


_BASIS_TO_CLASS = {
    PartitionClass.BASIS_G1: PartitionClass.G1,
    PartitionClass.BASIS_G2: PartitionClass.G2,
    PartitionClass.BASIS_P1: PartitionClass.P1,
    PartitionClass.BASIS_P2: PartitionClass.P2,
}
_CLASS_TO_BASIS = {v: k for k, v in _BASIS_TO_CLASS.items()}

# Classes whose even-indexed parts must be even (1-based indexing).
_EVEN_INDEX_EVEN = {PartitionClass.G1, PartitionClass.P1}
# Classes whose odd-indexed parts must be even.
_ODD_INDEX_EVEN = {PartitionClass.G2, PartitionClass.P2}


def stats(lam: Partition) -> PartitionStats:
    """Weight, length, alternating sum, odd-part count and BG-rank of ``lam``."""
    alt = 0
    odd = 0
    bg = 0
    for i, p in enumerate(lam):
        alt += p if i % 2 == 0 else -p
        if p % 2 == 1:
            odd += 1
            bg += 1 if i % 2 == 0 else -1
    return PartitionStats(sum(lam), len(lam), alt, odd, bg)


def omega_exponents(lam: Partition) -> OmegaExponents:
    """Exponents (A, B, C, D) of the four-parameter weight of ``lam``.

    Odd-indexed rows contribute ceil(p/2) to A and floor(p/2) to B;
    even-indexed rows contribute the same split to C and D.
    """
    a = b = c = d = 0
    for i, p in enumerate(lam):
        hi, lo = (p + 1) // 2, p // 2
        if i % 2 == 0:
            a += hi
            b += lo
        else:
            c += hi
            d += lo
    return OmegaExponents(a, b, c, d)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Ferrers diagram."""
    if not lam:
        return Partition()
    return Partition(tuple(sum(1 for p in lam if p > i) for i in range(lam[0])))


def _parity_ok(cls: PartitionClass, index: int, part: int) -> bool:
    """Parity constraint for the part at 1-based ``index`` in class ``cls``."""
    base = cls.base_class
    if base in _EVEN_INDEX_EVEN and index % 2 == 0:
        return part % 2 == 0
    if base in _ODD_INDEX_EVEN and index % 2 == 1:
        return part % 2 == 0
    return True


def is_member(cls: PartitionClass, lam: Partition) -> bool:
    """Exhaustive membership test for every class tag."""
    if cls is PartitionClass.ALL:
        return True
    strict = all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))
    if cls is PartitionClass.STRICT:
        return strict
    if cls in (PartitionClass.G1, PartitionClass.G2):
        if not strict:
            return False
    if not cls.is_basis:
        return all(_parity_ok(cls, i + 1, p) for i, p in enumerate(lam))
    # Basis tags: class membership plus gap and smallest-part conditions.
    if not is_member(cls.base_class, lam):
        return False
    if lam and lam[-1] not in (1, 2):
        return False
    gaps = cls.gaps
    return all(lam[i] - lam[i + 1] in gaps for i in range(len(lam) - 1))


def _partition_gen(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_gen(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _all_partitions(weight: int) -> tuple[Partition, ...]:
    return tuple(Partition(p) for p in _partition_gen(weight, weight))


@lru_cache(maxsize=None)
def _filtered(cls: PartitionClass, weight: int) -> tuple[Partition, ...]:
    return tuple(p for p in _all_partitions(weight) if is_member(cls, p))


def enumerate_partitions(cls: PartitionClass, weight: int) -> list[Partition]:
    """All members of ``cls`` of the given weight, lexicographically decreasing.

    This is a filter over the full partition list of that weight, so any
    specialized generator elsewhere must agree with it.
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    if cls is PartitionClass.ALL:
        return list(_all_partitions(weight))
    return list(_filtered(cls, weight))


def class_weight_series(cls: PartitionClass, trunc: int) -> Series:
    """The four-parameter weight summed over every member of weight <= ``trunc``.

    A member's weight monomial has total degree equal to its weight, so the
    sum is exact to order ``trunc``; it is the brute-force side of every
    generating-function check.
    """
    return Series.from_terms(
        FOUR_PARAM,
        (
            (omega_exponents(lam).vector(), 1)
            for w in range(trunc + 1)
            for lam in enumerate_partitions(cls, w)
        ),
        trunc,
        complete=False,
    )


@lru_cache(maxsize=None)
def _basis_by_shape(cls: PartitionClass, length: int, largest: int) -> tuple[Partition, ...]:
    if length == 0:
        return (Partition(),) if largest == 0 else ()
    if largest <= 0 or largest > 2 * length:
        return ()
    if not _parity_ok(cls, 1, largest):
        return ()
    gaps = cls.gaps
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], index: int) -> None:
        if index == length:
            if prefix[-1] in (1, 2):
                found.append(tuple(prefix))
            return
        for g in gaps:
            nxt = prefix[-1] - g
            if nxt >= 1 and _parity_ok(cls, index + 1, nxt):
                extend(prefix + [nxt], index + 1)

    extend([largest], 1)
    return tuple(Partition(p) for p in sorted(found, reverse=True))


def enumerate_basis_by_shape(cls: PartitionClass, length: int, largest: int) -> list[Partition]:
    """Basis members with the given length and largest part, lexicographically decreasing.

    The largest part of any basis member never exceeds twice its length.
    """
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")
    if length < 0 or largest < 0:
        raise ValueError("length and largest must be nonnegative")
    return list(_basis_by_shape(cls, length, largest))


@lru_cache(maxsize=None)
def basis_members_of_length(cls: PartitionClass, length: int) -> tuple[Partition, ...]:
    """All basis members of a fixed length (any largest part)."""
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")
    if length == 0:
        return (Partition(),)
    out: list[Partition] = []
    for largest in range(1, 2 * length + 1):
        out.extend(_basis_by_shape(cls, length, largest))
    return tuple(out)
