"""Integer partitions, their statistics, and parity-constrained classes.

A partition is a weakly decreasing tuple of positive integers.  Filling its
rows with two alternating letters, ``a b a b ...`` on odd-indexed rows and
``c d c d ...`` on even-indexed rows, assigns each partition a monomial
``a^A b^B c^C d^D`` (the four-parameter weight).  A class is one
:class:`RowRule`, which everything here reads.  All of it is exhaustive and
exact.  There is one member generator and one skeleton recursion.  The
member walk builds every member of a class up to a weight, part by part
under the class's row rules, once for all the weights it serves.  The
skeleton recursion builds skeletons bottom-up, one row per level, once per
parity of the length; its cells either sum weights, for every length and
largest part at once and with no partition built, or hold the skeletons
themselves.  A second recursion over rows, top row first, sums the class
weight series without building a partition.  The tests check each against
a filter through :func:`is_member`.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Iterator, NamedTuple

from .series import FOUR_PARAM, Series, SubstitutionMap, _checked_bound


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...] | list[int] = ()) -> "Partition":
        raw = tuple(parts)
        try:
            pts = tuple(map(operator.index, raw))
        except TypeError:
            raise TypeError(f"parts must be integers, got {raw!r}") from None
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
            return _BASIS[self]
        except KeyError:
            raise ValueError(f"{self} has no associated basis") from None

    @property
    def rule(self) -> RowRule:
        """The class's row rules; a basis tag obeys those of its base class."""
        return _RULES[_BASE_CLASS[self]]


#: Each tag's base class, read off its value once, at import.
_BASE_CLASS = {tag: PartitionClass(tag.value.removeprefix("basis-")) for tag in PartitionClass}
_BASIS = {base: tag for tag, base in _BASE_CLASS.items() if tag is not base}

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


def members_by_weight(
    cls: PartitionClass, weight_max: int, weight_min: int = 0
) -> list[list[Partition]]:
    """The members of ``cls`` of each weight ``weight_min .. weight_max``, in
    that order, each list lexicographically decreasing.

    One depth-first walk of the class's member tree.  Parts are chosen
    largest first under the class's row rules: in a strict class each part is
    capped one below the part above it, and a row whose parts must be even
    steps through even sizes only, so no partition outside the class is
    built.  The rules read only a row's index from the top, so every node of
    the walk is a member, kept once it weighs at least ``weight_min``; the
    members of one weight come out in decreasing order.  In a strict class a
    branch is cut once its rows cannot add enough to reach ``weight_min``.
    A basis tag walks its base class and keeps the members that pass
    :func:`is_member`.
    """
    if not 0 <= weight_min <= weight_max:
        raise ValueError(f"need 0 <= weight_min <= weight_max, got {weight_min}, {weight_max}")
    strict, allows = cls.rule.strict, cls.rule.allows
    out: list[list[Partition]] = [[] for _ in range(weight_min, weight_max + 1)]
    parts: list[int] = []

    def grow(weight: int, cap: int, index: int) -> None:
        if weight >= weight_min:
            out[weight - weight_min].append(_built(parts))
        elif strict and weight_min - weight > cap * (cap + 1) // 2:
            return
        top, step = min(weight_max - weight, cap), 1
        if not allows(index, 1):  # the row holds even parts only
            top, step = top - top % 2, 2
        for part in range(top, 0, -step):
            parts.append(part)
            grow(weight + part, part - 1 if strict else part, index + 1)
            parts.pop()

    grow(0, weight_max, 1)
    if cls.is_basis:
        return [[lam for lam in members if is_member(cls, lam)] for members in out]
    return out


def enumerate_partitions(cls: PartitionClass, weight: int) -> list[Partition]:
    """All members of ``cls`` of the given weight, lexicographically
    decreasing: :func:`members_by_weight` from that weight to itself."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return members_by_weight(cls, weight, weight)[0]


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


def _row_keys(weight_map: SubstitutionMap) -> Callable[[int, int], int]:
    """``key(index, part)``, the packed mapped monomial of ``part`` on row
    ``index`` (1-based): ``ceil(part/2)`` times the packed image of the row's
    first letter (``a`` on odd rows, ``c`` on even ones) plus ``floor(part/2)``
    times its second's.  Each image is read once, through ``map_exps`` of a
    unit vector; packing is linear, so the key is the packed image."""
    pack, map_exps = weight_map.target.pack, weight_map.map_exps
    a, b, c, d = (pack(map_exps(unit)) for unit in OMEGA_IDENTITY.images)
    letters = ((c, d), (a, b))

    def key(index: int, part: int) -> int:
        hi, lo = letters[index % 2]
        return (part + 1) // 2 * hi + part // 2 * lo

    return key


def _add_into(acc: dict, cell: dict, delta: int | tuple[int, ...] = 0) -> None:
    """Add the counts of ``cell`` to ``acc``, each key shifted by ``delta``: a
    packed-monomial key by adding, a :func:`_stack_key` tuple by extending."""
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
    rule, key = cls.rule, _row_keys(weight_map)
    cell: list[list[dict[int, int]]] = [[{} for _ in range(trunc + 1)] for _ in (0, 1)]
    cell[0][0][0] = 1
    for cap in range(trunc, 0, -1):
        steps = [
            (cell[parity], cell[1 - parity], key(parity, cap))
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


def _require_basis(cls: PartitionClass) -> None:
    if not cls.is_basis:
        raise ValueError(f"{cls} is not a basis tag")


def _stack_key(index: int, part: int) -> tuple[int]:
    """A row's key when the cells list skeletons: the part itself, so that a
    stack's key is its parts, bottom row first."""
    return (part,)


def _skeleton_levels(
    cls: PartitionClass,
    rows: int,
    weight_max: int,
    largest: int,
    key: Callable[[int, int], object],
) -> Iterator[tuple[int, dict[int, dict[int, dict]]]]:
    """The skeletons of the basis ``cls`` with at most ``rows`` rows, weight
    at most ``weight_max`` and parts at most ``largest``, built bottom-up the
    way :func:`sipq.sip.decompose` forces one: from one of the rule's
    ``last_parts``, each higher row adds one of its ``gaps``.

    Yields ``(length, level)`` for each length that has a skeleton, where
    ``level[top][weight]`` maps keys to counts over the skeletons of that
    length, top part and weight.  A row on the parity-``p`` index (counted
    from the top) adds ``key(p, part)`` to every key below it: a packed
    monomial to sum weights, or :func:`_stack_key` to list the stacks.  The
    bottom row of a length-``n`` skeleton has index ``n``, so one pass runs
    per parity of ``n`` and a stack of ``k`` rows is a whole skeleton when
    ``k`` has the pass's parity; each pass yields every length of its parity
    and every top part at once.
    """
    rule = cls.rule
    gaps = rule.gaps
    # keys[p][part]: the row's key, or None where a parity-p row refuses part.
    keys = [
        [key(parity, part) if rule.allows(parity, part) else None for part in range(largest + 1)]
        for parity in (0, 1)
    ]
    for parity in (1, 0):
        level = {
            last: {last: {keys[parity][last]: 1}}
            for last in rule.last_parts
            if last <= min(largest, weight_max) and keys[parity][last] is not None
        }
        for length in range(1, rows + 1):
            if not level:
                break
            if length % 2 == parity:
                yield length, level
            if length == rows:
                break
            index = (parity - length) % 2  # of the next row up
            above_level: dict[int, dict[int, dict]] = {}
            for part, cells in level.items():
                for above in (part + gap for gap in gaps):
                    delta = keys[index][above] if above <= largest else None
                    if delta is None:
                        continue
                    for weight, cell in cells.items():
                        if weight + above <= weight_max:
                            dest = above_level.setdefault(above, {}).setdefault(weight + above, {})
                            _add_into(dest, cell, delta)
            level = above_level


def basis_weight_sums(
    cls: PartitionClass,
    rows: int,
    weight_max: int,
    weight_map: SubstitutionMap = OMEGA_IDENTITY,
) -> list[Series]:
    """``[B_0, ..., B_rows]``: ``B_m`` sums the four-parameter weights, pushed
    through ``weight_map``, of the basis members of length ``m`` and weight at
    most ``weight_max``.

    One :func:`_skeleton_levels` pass per parity, no partition built; each
    level's cells, over every top part, add to its length's sum.  A cell's
    weight is the degree of its terms, each image having degree 1.
    """
    _require_basis(cls)
    if min(rows, weight_max) < 0:
        raise ValueError("rows and weight_max must be nonnegative")
    _require_weight_map(weight_map)
    sums: list[dict[int, dict[int, int]]] = [{0: {0: 1}}] + [{} for _ in range(rows)]
    key = _row_keys(weight_map)
    for length, level in _skeleton_levels(cls, rows, weight_max, weight_max, key):
        for cells in level.values():
            for weight, cell in cells.items():
                _add_into(sums[length].setdefault(weight, {}), cell)
    bound = _exponent_bound(cls.rule, weight_max, weight_map)
    return [Series._from_buckets(weight_map.target, buckets, bound, None) for buckets in sums]


def basis_weight_grid(cls: PartitionClass, rows: int, largest: int) -> list[list[Series]]:
    """``grid[n][h]``, for ``n <= rows`` and ``h <= largest``: the sum of the
    four-parameter weights of the basis members of length ``n`` and largest
    part ``h``.

    One :func:`_skeleton_levels` pass per parity fills the whole grid, no
    partition built.  No member in it weighs more than ``rows * largest``,
    so that weight bound cuts none.
    """
    _require_basis(cls)
    if min(rows, largest) < 0:
        raise ValueError("rows and largest must be nonnegative")
    weight_max = rows * largest
    zero = Series.zero(FOUR_PARAM)
    grid = [[zero] * (largest + 1) for _ in range(rows + 1)]
    grid[0][0] = Series.one(FOUR_PARAM)
    bound = _exponent_bound(cls.rule, weight_max, OMEGA_IDENTITY)
    key = _row_keys(OMEGA_IDENTITY)
    for length, level in _skeleton_levels(cls, rows, weight_max, largest, key):
        for top, cells in level.items():
            grid[length][top] = Series._from_buckets(FOUR_PARAM, cells, bound, None)
    return grid


def basis_members_of_length(
    cls: PartitionClass, length: int, weight_max: int
) -> tuple[Partition, ...]:
    """All basis members of one length and weight at most ``weight_max``,
    lexicographically decreasing: the stacks that one
    :func:`_skeleton_levels` pass, keyed by :func:`_stack_key`, holds at
    that length."""
    _require_basis(cls)
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return (_built([]),) if weight_max >= 0 else ()
    found: list[Partition] = []
    for n, level in _skeleton_levels(cls, length, weight_max, max(weight_max, 0), _stack_key):
        if n == length:
            found = [
                _built(stack[::-1])
                for cells in level.values()
                for cell in cells.values()
                for stack in cell
            ]
            break
    return tuple(sorted(found, reverse=True))
