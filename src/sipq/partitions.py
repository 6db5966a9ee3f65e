"""Integer partitions, their statistics, and parity-constrained classes.

A partition is a weakly decreasing tuple of positive integers.  Filling its
rows with two alternating letters, ``a b a b ...`` on odd-indexed rows and
``c d c d ...`` on even-indexed rows, assigns each partition a monomial
``a^A b^B c^C d^D`` (the four-parameter weight).  A class is one
:class:`RowRule`, which everything here reads.  All of it is exhaustive and
exact.  The generators build only what their callers can use: class members
part by part under the class's row rules, and one length's skeletons under a
weight bound.  Two recursions over rows sum weights and build no partition:
the class weight series and the skeleton sums of every length.  The tests
check each against a filter through :func:`is_member`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .series import FOUR_PARAM, Series, SubstitutionMap, _checked_bound


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


def _built(parts: list[int]) -> Partition:
    """A partition from parts a generator made valid by construction, so not
    checked again; outside input goes through :class:`Partition`."""
    return tuple.__new__(Partition, parts)


class PartitionStats(NamedTuple):
    """Basic statistics of a single partition."""

    weight: int
    length: int
    alt_sum: int
    odd_parts: int
    bg_rank: int


class OmegaExponents(NamedTuple):
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


class RowRule(NamedTuple):
    """The row rules of a position-parity class: ``strict`` asks for distinct
    parts, and a row whose 1-based index has parity ``even_row`` (None: no
    row) holds even parts only.  The skeleton gaps follow from ``strict``."""

    strict: bool
    even_row: int | None

    def allows(self, index: int, part: int) -> bool:
        """Whether row ``index`` (1-based) may hold ``part``."""
        return part % 2 == 0 or index % 2 != self.even_row

    @property
    def gaps(self) -> tuple[int, int]:
        """The successive differences allowed within a skeleton (basis member)."""
        return (1, 2) if self.strict else (0, 1)

    @property
    def last_parts(self) -> tuple[int, int]:
        """A skeleton's possible last parts, odd first: the least part of each
        parity, so that even padding keeps a member's last-part parity."""
        return (1, 2)

    def last_part(self, part: int) -> int:
        """The last skeleton part under a member whose last part is ``part``."""
        return self.last_parts[part % 2 == 0]


class PartitionClass(enum.Enum):
    """Tags for the partition families the package works with.

    Each class is one :class:`RowRule` in ``_RULES``.  G1/G2 are strict
    partitions whose even-indexed (resp. odd-indexed) parts are even; P1/P2
    drop the strictness requirement.  A class with a parity row has a basis
    tag, ``"basis-"`` plus its value: its members with gaps in ``gaps`` and
    smallest part in ``last_parts``.
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
        return self is not _BASE_CLASS[self]

    @property
    def base_class(self) -> "PartitionClass":
        """For a basis tag, the class it is a basis of; otherwise itself."""
        return _BASE_CLASS[self]

    @property
    def basis(self) -> "PartitionClass":
        """For one of G1/G2/P1/P2, the corresponding basis tag."""
        try:
            return PartitionClass("basis-" + self.value)
        except ValueError:
            raise ValueError(f"{self} has no associated basis") from None

    @property
    def rule(self) -> RowRule:
        """The class's row rules; a basis tag obeys those of its base class."""
        return _RULES[_BASE_CLASS[self]]

    @property
    def gaps(self) -> tuple[int, int]:
        """Allowed successive differences within basis members."""
        return self.rule.gaps


#: Each tag's base class, read off its value once, at import.
_BASE_CLASS = {tag: PartitionClass(tag.value.removeprefix("basis-")) for tag in PartitionClass}

_RULES = {
    PartitionClass.ALL: RowRule(False, None),
    PartitionClass.STRICT: RowRule(True, None),
    PartitionClass.G1: RowRule(True, 0),
    PartitionClass.G2: RowRule(True, 1),
    PartitionClass.P1: RowRule(False, 0),
    PartitionClass.P2: RowRule(False, 1),
}

#: The four-parameter weight unchanged: each of a, b, c, d maps to itself.
OMEGA_IDENTITY = SubstitutionMap(
    FOUR_PARAM, FOUR_PARAM, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
)


def _require_weight_map(weight_map: SubstitutionMap) -> None:
    """Refuse a weight map not from the four-parameter ring or with an image of
    degree other than 1, so that a member's mapped degree is its weight."""
    if weight_map.source != FOUR_PARAM:
        raise ValueError(f"weight map source {weight_map.source.names} is not {FOUR_PARAM.names}")
    if any(weight_map.target.degree(image) != 1 for image in weight_map.images):
        raise ValueError(f"every image of the weight map needs degree 1, got {weight_map.images}")


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
    """Transpose of the Ferrers diagram, in time linear in its size."""
    # Column j is as long as the number of rows longer than j.  Walking the
    # rows from the bottom, the columns up to row i's end have exactly i rows.
    columns: list[int] = []
    for i in range(len(lam), 0, -1):
        columns.extend([i] * (lam[i - 1] - len(columns)))
    return _built(columns)


def is_member(cls: PartitionClass, lam: Partition) -> bool:
    """Exhaustive membership test for every class tag."""
    rule = cls.rule
    if rule.strict and any(lam[i] <= lam[i + 1] for i in range(len(lam) - 1)):
        return False
    if not all(map(rule.allows, range(1, len(lam) + 1), lam)):
        return False
    if not cls.is_basis:
        return True
    # Basis tags: class membership plus gap and smallest-part conditions.
    if lam and lam[-1] not in rule.last_parts:
        return False
    gaps = rule.gaps
    return all(lam[i] - lam[i + 1] in gaps for i in range(len(lam) - 1))


def enumerate_partitions(cls: PartitionClass, weight: int) -> list[Partition]:
    """All members of ``cls`` of the given weight, lexicographically decreasing.

    Parts are chosen largest first under the class's row rules: in a strict
    class each part is capped one below the part above it, and a row whose
    parts must be even steps through even sizes only, so no partition outside
    the class is built.  A basis tag generates its base class and keeps the
    members that pass :func:`is_member`.
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    strict, allows = cls.rule.strict, cls.rule.allows
    out: list[Partition] = []
    parts: list[int] = []

    def grow(rem: int, cap: int, index: int) -> None:
        if rem == 0:
            out.append(_built(parts))
            return
        if strict and rem > cap * (cap + 1) // 2:
            return
        top, step = min(rem, cap), 1
        if not allows(index, 1):  # the row holds even parts only
            top, step = top - top % 2, 2
        for part in range(top, 0, -step):
            parts.append(part)
            grow(rem - part, part - 1 if strict else part, index + 1)
            parts.pop()

    grow(weight, weight, 1)
    if cls.is_basis:
        return [lam for lam in out if is_member(cls, lam)]
    return out


def _rems(strict: bool, cap: int, trunc: int) -> range:
    """The remainders a part of size ``cap`` is added at, in update order.

    Downward in a strict class, so each cell reads the cell below it before
    this cap has touched it and the part is used at most once; upward
    otherwise, so the part can repeat (the 0/1 and unbounded knapsack orders).
    """
    return range(trunc, cap - 1, -1) if strict else range(cap, trunc + 1)


def _exponent_bound(rule: RowRule, weight_max: int, weight_map: SubstitutionMap) -> int:
    """A checked bound on every mapped exponent of a member of weight <= ``weight_max``."""
    # A member of weight w <= weight_max has nonnegative exponents (A, B, C, D)
    # with B <= A and D <= C.  A, the sum of ceil(p/2) over the m odd-indexed
    # rows, is at most ceil(w/2), since the m - 1 rows between them weigh at
    # least 1 each; C is at most floor(w/2), since there are no more
    # even-indexed rows than odd-indexed ones; a class whose odd-indexed rows
    # must be even has A <= floor(w/2) too.  So each exponent is at most
    # ``half``, and target exponent j, sum_i e_i * image_i[j], is at most
    # half * sum_i |image_i[j]| in absolute value.  For the identity map this
    # is ``half``, which a one-row member attains.
    half = (weight_max + 1) // 2 if rule.allows(1, 1) else weight_max // 2
    return _checked_bound(max(half * sum(map(abs, column)) for column in zip(*weight_map.images)))


def _part_key(weight_map: SubstitutionMap, index: int, part: int) -> int:
    """The packed mapped monomial of ``part`` on row ``index`` (1-based)."""
    hi, lo = (part + 1) // 2, part // 2
    exps = (hi, lo, 0, 0) if index % 2 else (0, 0, hi, lo)
    return weight_map.target.pack(weight_map.map_exps(exps))


def _add_into(acc: dict[int, int], cell: dict[int, int], delta: int = 0) -> None:
    """Add the counts of ``cell`` to ``acc``, each key shifted by ``delta``."""
    get = acc.get
    for key, count in cell.items():
        key += delta
        acc[key] = get(key, 0) + count


def class_weight_series(
    cls: PartitionClass, trunc: int, weight_map: SubstitutionMap = OMEGA_IDENTITY
) -> Series:
    """The four-parameter weight, pushed through ``weight_map``, summed over
    every member of weight <= ``trunc``.

    The sum runs row by row, top row first, without building a partition.
    Two rolling rows of cells, ``cell[p][rem]`` for ``rem = 0..trunc``, map
    packed keys of the map's target ring to counts: the ways to fill some top
    rows, ``p`` their number mod 2, with parts at least the current cap and
    weight exactly ``rem``.  Lowering the cap from ``trunc`` to 1 updates
    every cell in place: where the cap is an allowed part on the next row, of
    index parity ``1 - p``, ``cell[1 - p][rem]`` gains ``cell[p][rem - cap]``
    shifted by the part's mapped monomial, one packed key added to each key.
    Largest parts first, the cells stay sparse until the last caps.  The map
    is monomial, so applying it part by part gives each member's mapped weight.
    The order of :func:`_rems` makes a strict class read the cell from the
    cap above and a non-strict one the cell at this cap.  This is still a
    direct sum over class members under the class's row rules; it uses no
    skeleton, series or product, so it stays independent of the sides it is
    compared with.  Every image has target degree 1, so a member's mapped
    monomial has degree equal to its weight, ``cell[0][w] + cell[1][w]`` is
    the degree-``w`` bucket and the sum is exact to order ``trunc``.  Basis
    tags are rejected: the recursion encodes the base-class rules only.
    """
    if cls.is_basis:
        raise ValueError(f"{cls} is a basis tag; its rules are not row rules")
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    _require_weight_map(weight_map)
    rule = cls.rule
    cell: list[list[dict[int, int]]] = [[{} for _ in range(trunc + 1)] for _ in (0, 1)]
    cell[0][0][0] = 1
    for cap in range(trunc, 0, -1):
        steps = [
            (cell[parity], cell[1 - parity], _part_key(weight_map, parity, cap))
            for parity in (0, 1)
            if rule.allows(parity, cap)
        ]
        for rem in _rems(rule.strict, cap, trunc):
            for row, heads, delta in steps:
                if heads[rem - cap]:
                    _add_into(row[rem], heads[rem - cap], delta)
    # Fold the odd row into the even one, freeing each odd cell as it goes.
    even, odd = cell
    for acc, extra in zip(even, odd):
        _add_into(acc, extra)
        extra.clear()
    bound = _exponent_bound(rule, trunc, weight_map)
    return Series._from_buckets(weight_map.target, dict(enumerate(even)), bound, trunc)


def basis_weight_sums(
    cls: PartitionClass,
    rows: int,
    weight_max: int,
    weight_map: SubstitutionMap = OMEGA_IDENTITY,
    largest: int | None = None,
) -> list[Series]:
    """``[B_0, ..., B_rows]``: ``B_m`` sums the four-parameter weights, pushed
    through ``weight_map``, of the basis members of length ``m``, weight at
    most ``weight_max`` and, when given, largest part ``largest``.

    The sum runs top row first and builds no partition.  Level ``k`` holds
    one cell of counts by packed key per part on row ``k`` and weight of rows
    ``1..k``.  It starts at each part row 1 allows (or ``largest``); row
    ``k + 1`` takes the part minus each of the rule's ``gaps``, if at least 1,
    allowed there and able to end a member within ``weight_max``.  The cells
    at the rule's ``last_parts`` add to ``B_k``: a cell's weight is the degree
    of its terms, each image having degree 1.
    """
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")
    if min(rows, weight_max, largest or 0) < 0:
        raise ValueError("rows, weight_max and largest must be nonnegative")
    _require_weight_map(weight_map)
    rule = cls.rule
    most = weight_max if largest is None else largest
    keys = [[_part_key(weight_map, index, part) for part in range(most + 1)] for index in (0, 1)]
    # ``least[part]``: the least the rows under a row ``part`` weigh, falling
    # at most the greatest gap each, to a last part.
    least, floor, drop = [0] * (most + 1), max(rule.last_parts), max(rule.gaps)
    for part in range(floor + 1, most + 1):
        least[part] = part - drop + least[part - drop]
    tops = range(1, most + 1) if largest is None else (largest,)
    level = {top: {top: {keys[1][top]: 1}} for top in tops
             if 1 <= top <= weight_max - least[top] and rule.allows(1, top)}
    sums = [{0: {0: 1}} if largest in (None, 0) else {}]
    for index in range(1, rows + 1):
        sums.append({})
        for last in rule.last_parts:
            for weight, cell in level.get(last, {}).items():
                _add_into(sums[-1].setdefault(weight, {}), cell)
        below_level: dict[int, dict[int, dict[int, int]]] = {}
        for part, cells in level.items():
            for below in (part - gap for gap in rule.gaps):
                if below >= 1 and rule.allows(index + 1, below):
                    delta, limit = keys[(index + 1) % 2][below], weight_max - least[below]
                    dest = below_level.setdefault(below, {})
                    for weight, cell in cells.items():
                        if weight + below <= limit:
                            _add_into(dest.setdefault(weight + below, {}), cell, delta)
        level = below_level
    bound = _exponent_bound(rule, weight_max, weight_map)
    return [Series._from_buckets(weight_map.target, buckets, bound, None) for buckets in sums]


def _least_above(part: int, rows: int, min_gap: int) -> int:
    """The least weight ``rows`` basis rows stacked on a row ``part`` can add."""
    return rows * part + min_gap * rows * (rows + 1) // 2


def basis_members_of_length(
    cls: PartitionClass, length: int, weight_max: int
) -> tuple[Partition, ...]:
    """All basis members of one length and weight at most ``weight_max``,
    lexicographically decreasing, built bottom-up the way
    :func:`sipq.sip.decompose` forces a skeleton: from one of the rule's
    ``last_parts``, each higher row adds one admissible gap and obeys its
    row's parity rule.  A branch is cut once its weight plus the least its
    remaining rows can add exceeds ``weight_max``."""
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return (_built([]),) if weight_max >= 0 else ()
    rule = cls.rule
    min_gap = min(rule.gaps)
    found: list[Partition] = []
    rows: list[int] = []  # bottom row first

    def place(index: int, part: int, weight: int) -> None:
        # Put ``part`` on row ``index`` (1-based) over rows of weight ``weight``.
        weight += part
        least = weight + _least_above(part, index - 1, min_gap)
        if not rule.allows(index, part) or least > weight_max:
            return
        rows.append(part)
        if index == 1:
            found.append(_built(rows[::-1]))
        else:
            for gap in rule.gaps:
                place(index - 1, part + gap, weight)
        rows.pop()

    for last in rule.last_parts:
        place(length, last, 0)
    return tuple(sorted(found, reverse=True))
