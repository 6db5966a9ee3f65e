"""The identity catalog: every registered statement, checked three ways."""

from __future__ import annotations

import re
from itertools import count, islice

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from sipq import identities, qseries
from sipq.identities import (
    OMEGA_TO_BG,
    OMEGA_TO_XZQ,
    OMEGA_TO_ZQ,
    SumFamily,
    UnknownTheorem,
    combinatorial_side,
    product_side,
    registry,
    series_side,
    spec_by_key,
    verify_partial_sums,
    verify_spec,
    verify_substitution_consistency,
)
from sipq.partitions import Partition, PartitionClass, enumerate_partitions
from sipq.qseries import A_INFINITY, PochFactor, check_q_gauss, horner_sum, running_product
from sipq.series import (
    FOUR_PARAM,
    XZQ,
    PrecisionLoss,
    Series,
    SubstitutionMap,
    TruncationMismatch,
)

EXPECTED_KEYS = (
    "g1-four",
    "g2-four",
    "p1-four",
    "p2-four",
    "boulet-p",
    "andrews-xzq",
    "g1-oddparts",
    "g2-oddparts",
    "g1-altsum",
    "g2-altsum",
    "g1-xzq",
    "g2-xzq",
    "p1-xzq",
    "p2-xzq",
    "g1-bg",
    "g2-bg",
    "p1-bg",
    "p2-bg",
)


class TestRegistry:
    def test_catalog_keys(self):
        assert tuple(s.key for s in registry()) == EXPECTED_KEYS

    def test_keys_unique(self):
        keys = [s.key for s in registry()]
        assert len(keys) == len(set(keys))

    def test_every_spec_has_description_and_sides(self):
        for spec in registry():
            assert spec.description
            assert spec.partition_class is not None
            assert spec.series or spec.product

    def test_lookup(self):
        assert spec_by_key("p1-four").key == "p1-four"

    def test_unknown_key(self):
        with pytest.raises(UnknownTheorem):
            spec_by_key("does-not-exist")


class TestFrozenSlices:
    def test_four_param_degree_one(self):
        spec = spec_by_key("g1-four")
        assert series_side(spec, 4).degree_slice(1) == {(1, 0, 0, 0): 1}
        assert combinatorial_side(spec, 4).degree_slice(1) == {(1, 0, 0, 0): 1}

    def test_all_partitions_product_degree_four(self):
        spec = spec_by_key("boulet-p")
        # the five partitions of 4, weighted: a^2b^2, 2*a^2bc, a^2c^2, abcd
        assert product_side(spec, 4).degree_slice(4) == {
            (2, 2, 0, 0): 1,
            (2, 1, 1, 0): 2,
            (2, 0, 2, 0): 1,
            (1, 1, 1, 1): 1,
        }

    def test_alternating_variant_matches_main_product(self):
        spec = spec_by_key("g1-altsum")
        main = product_side(spec, 12)
        alt = product_side(spec, 12, alt=True)
        assert main.terms == alt.terms


@pytest.mark.parametrize(
    "key", ("g1-four", "p2-four", "boulet-p", "andrews-xzq", "g2-oddparts",
            "g1-altsum", "p1-xzq", "g1-bg", "p2-bg")
)
def test_verify_passes(key):
    report = verify_spec(spec_by_key(key), 12)
    assert report.passed, report.failures
    assert report.name == f"identity[{key}]"
    assert report.checks >= 1


def test_verify_rejects_negative_truncation():
    with pytest.raises(ValueError):
        verify_spec(spec_by_key("g1-four"), -1)


@pytest.mark.parametrize("key", EXPECTED_KEYS)
def test_sides_reject_negative_truncation(key):
    """No side claims a sum below order 0: each refuses a negative truncation,
    also where the statement has no series side."""
    spec = spec_by_key(key)
    sides = [combinatorial_side, series_side, product_side]
    if spec.product_alt is not None:
        sides.append(lambda spec, trunc: product_side(spec, trunc, alt=True))
    for side in sides:
        with pytest.raises(ValueError, match="trunc must be nonnegative"):
            side(spec, -1)


def _rebuilt(record, **changes):
    """``record`` with ``changes``, built through its class's constructor so
    that the class's validation runs."""
    return type(record)(**{**record._asdict(), **changes})


class TestDetectsInjectedErrors:
    """A deliberately corrupted statement must be caught, with a located diff."""

    def test_wrong_class(self):
        spec = _rebuilt(spec_by_key("g1-four"), partition_class=PartitionClass.G2)
        report = verify_spec(spec, 8)
        assert not report.passed
        assert report.failures
        assert any("degree" in f for f in report.failures)

    def test_wrong_product_factor(self):
        spec = spec_by_key("g1-four")
        bad_factor = _rebuilt(spec.product[0], sign=-spec.product[0].sign)
        corrupted = _rebuilt(spec, product=(bad_factor,) + spec.product[1:])
        report = verify_spec(corrupted, 8)
        assert not report.passed

    def test_wrong_series_prefactor(self):
        spec = spec_by_key("g2-four")
        fam = spec.series[0]
        shifted = _rebuilt(
            fam, prefactor=tuple((c2, c1, c0 + 1) for c2, c1, c0 in fam.prefactor)
        )
        corrupted = _rebuilt(spec, series=(shifted,) + spec.series[1:])
        report = verify_spec(corrupted, 8)
        assert not report.passed


def _replace_at(items, i, item):
    return items[:i] + (item,) + items[i + 1 :]


def _single_datum_mutants(spec):
    """Every catalog entry with one datum perturbed: each product factor's
    sign flipped, each finite factor's count constant raised by one, each
    family's last prefactor constant raised by one."""
    for field in ("product", "product_alt"):
        factors = getattr(spec, field) or ()
        for i, f in enumerate(factors):
            flipped = _rebuilt(f, sign=-f.sign)
            yield f"{field}[{i}].sign", _rebuilt(
                spec, **{field: _replace_at(factors, i, flipped)}
            )
    for k, fam in enumerate(spec.series):
        for i, f in enumerate(fam.factors):
            alpha, beta = f.count
            longer = _rebuilt(f, count=(alpha, beta + 1))
            family = _rebuilt(fam, factors=_replace_at(fam.factors, i, longer))
            yield f"series[{k}].factors[{i}].count", _rebuilt(
                spec, series=_replace_at(spec.series, k, family)
            )
        c2, c1, c0 = fam.prefactor[-1]
        family = _rebuilt(fam, prefactor=fam.prefactor[:-1] + ((c2, c1, c0 + 1),))
        yield f"series[{k}].prefactor[-1]", _rebuilt(
            spec, series=_replace_at(spec.series, k, family)
        )


def test_every_single_datum_mutant_fails():
    """Each datum of the catalog is load-bearing: no perturbation passes."""
    mutants = [
        (spec.key, label, mutant)
        for spec in registry()
        for label, mutant in _single_datum_mutants(spec)
    ]
    assert len(mutants) == 129
    survivors = [(key, label) for key, label, m in mutants if verify_spec(m, 8).passed]
    assert survivors == []


# The corollaries the catalog derives from a four-parameter statement, each
# with its source and weight map.
DERIVED = {
    "g1-altsum": ("g1-four", OMEGA_TO_ZQ),
    "g2-altsum": ("g2-four", OMEGA_TO_ZQ),
    "g1-xzq": ("g1-four", OMEGA_TO_XZQ),
    "g2-xzq": ("g2-four", OMEGA_TO_XZQ),
    "p1-xzq": ("p1-four", OMEGA_TO_XZQ),
    "p2-xzq": ("p2-four", OMEGA_TO_XZQ),
}


def _prefactor_at(fam, n):
    """The family's prefactor exponents at summand ``n``, from its columns."""
    return tuple(c2 * (n * (n - 1) // 2) + c1 * n + c0 for c2, c1, c0 in fam.prefactor)


class TestDerivedCorollaries:
    """Each derived corollary is its source statement's image under its map."""

    @pytest.mark.parametrize("key", DERIVED)
    def test_image_of_its_source(self, key):
        source_key, weight_map = DERIVED[key]
        spec, source = spec_by_key(key), spec_by_key(source_key)
        map_exps = weight_map.map_exps
        assert spec.ring == XZQ and spec.weight_map is weight_map
        assert spec.partition_class is source.partition_class
        assert len(spec.series) == len(source.series)
        pairs = list(zip(spec.product, source.product, strict=True))
        for fam, source_fam in zip(spec.series, source.series):
            for n in range(7):
                assert _prefactor_at(fam, n) == map_exps(_prefactor_at(source_fam, n))
            pairs += zip(fam.factors, source_fam.factors, strict=True)
        for f, g in pairs:
            assert f.arg_exps == map_exps(g.arg_exps)
            assert f.base_exps == map_exps(g.base_exps)
            assert (f.sign, f.count, f.inverted) == (g.sign, g.count, g.inverted)

    def test_another_map_on_the_combinatorial_side_fails(self):
        spec = _rebuilt(spec_by_key("g1-xzq"), weight_map=OMEGA_TO_BG)
        report = verify_spec(spec, 8)
        assert not report.passed
        assert "degree-1 slices" in report.failures[0]

    def test_factors_mapped_by_another_map_fail(self):
        image = identities._image(spec_by_key("g1-four"), "g1-xzq", "mis-mapped", OMEGA_TO_BG)
        report = verify_spec(_rebuilt(image, weight_map=OMEGA_TO_XZQ), 8)
        assert not report.passed
        assert "degree-1 slices" in report.failures[0]

    def test_image_is_refused_like_any_spec(self):
        """A map that sends every variable to degree 0 leaves the prefactor's
        degree flat in n, which the constructor refuses."""
        flat = SubstitutionMap(FOUR_PARAM, XZQ, ((1, 0, 0),) * 4)
        with pytest.raises(ValueError, match="prefactor degree step"):
            identities._image(spec_by_key("g1-four"), "flat", "flat", flat)


@pytest.mark.parametrize(
    "d_exponent",
    ((0, -4, 0), (-1, 0, 0)),
    ids=("linear-step", "quadratic-step"),
)
def test_decreasing_prefactor_rejected(d_exponent):
    """Summation stops at the first term past the truncation, so a family
    whose prefactor degree can decrease in n is refused when built."""
    spec = spec_by_key("p1-four")
    fam = _rebuilt(spec.series[0], prefactor=((0, 1, 0),) * 3 + (d_exponent,))
    with pytest.raises(ValueError, match="decreases"):
        _rebuilt(spec, series=(fam,))


def test_negative_first_step_rejected():
    """A numerator binomial of degree -5 against a prefactor step of degree 4
    gives the first step polynomial a term of degree -1, so the forward pass
    could stop before a summand that comes back below the truncation: refused
    when built."""
    spec = spec_by_key("p1-four")
    fam = spec.series[0]
    low = _rebuilt(fam.factors[0], arg_exps=(0, -2, -2, -1))
    family = _rebuilt(fam, factors=(low,) + fam.factors[1:])
    with pytest.raises(ValueError, match="first step polynomial has a term of degree -1"):
        _rebuilt(spec, series=(family,))


def test_flat_prefactor_rejected():
    """A prefactor whose degree never grows leaves a degree-0 term in every
    step polynomial: the summands never pass the truncation, so the family is
    refused when built instead of summed forever."""
    spec = spec_by_key("g1-bg")
    fam = _rebuilt(spec.series[0], prefactor=((0, 0, 0),) * 3)
    with pytest.raises(ValueError, match="never grows"):
        _rebuilt(spec, series=(fam,))


def test_flat_factor_base_rejected():
    """In the x, z, q ring only q carries degree: a base of x alone would let
    numerator degrees stall, so the family is refused when built."""
    spec = spec_by_key("g1-xzq")
    fam = spec.series[0]
    flat = _rebuilt(fam.factors[0], base_exps=(1, 0, 0))
    family = _rebuilt(fam, factors=(flat,) + fam.factors[1:])
    with pytest.raises(ValueError, match="base needs positive degree"):
        _rebuilt(spec, series=(family,))


@pytest.mark.parametrize("key, field", (("g1-four", "product"), ("g1-altsum", "product_alt")))
def test_product_factor_with_count_rejected(key, field):
    """A product is infinite, so a product factor that carries a summand count
    is refused when built, with the statement's key."""
    spec = spec_by_key(key)
    counted = tuple(_rebuilt(f, count=(1, 0)) for f in getattr(spec, field))
    with pytest.raises(ValueError, match=f"^{key}: a product factor has a count$"):
        _rebuilt(spec, **{field: counted})


def test_series_factor_without_count_rejected():
    """A series factor without a count has no summand-by-summand binomials,
    so it is refused when built, with the statement's key, not when summed."""
    spec = spec_by_key("g1-four")
    fam = spec.series[0]
    uncounted = _rebuilt(fam.factors[1], count=None)
    family = _rebuilt(fam, factors=(fam.factors[0], uncounted) + fam.factors[2:])
    with pytest.raises(ValueError, match="^g1-four: a series factor has no count$"):
        _rebuilt(spec, series=(family,))


@pytest.mark.parametrize("count", ((0, 0), (-1, 0), (1, -1)), ids=("alpha-0", "alpha-minus-1", "beta-minus-1"))
def test_series_factor_count_out_of_range_rejected(count):
    """A factor with ``alpha < 1`` adds no binomial from one summand to the
    next, and one with ``beta < 0`` lacks binomials its first summands need:
    each is refused when built, with the statement's key."""
    spec = spec_by_key("g1-four")
    fam = spec.series[0]
    family = _rebuilt(fam, factors=(_rebuilt(fam.factors[0], count=count),) + fam.factors[1:])
    with pytest.raises(ValueError, match="^g1-four: a series factor count needs alpha >= 1"):
        _rebuilt(spec, series=(family,))


def _arity_changes(spec):
    """Field changes that give one factor's argument or base, or one family's
    prefactor, one entry too many or too few."""
    for field in ("product", "product_alt"):
        factors = getattr(spec, field)
        for attr in ("arg_exps", "base_exps") if factors else ():
            exps = getattr(factors[0], attr)
            for wrong in (exps + (7,), exps[:-1]):
                yield {field: (_rebuilt(factors[0], **{attr: wrong}),) + factors[1:]}
    fam = spec.series[0]
    for i, f in enumerate(fam.factors):
        for attr in ("arg_exps", "base_exps"):
            changed = _rebuilt(f, **{attr: getattr(f, attr) + (7,)})
            yield {"series": (_rebuilt(fam, factors=_replace_at(fam.factors, i, changed)),)}
    for prefactor in (fam.prefactor + ((0, 0, 0),), fam.prefactor[:-1]):
        yield {"series": (_rebuilt(fam, prefactor=prefactor),)}


@pytest.mark.parametrize("key", ("g1-four", "g1-altsum"))
def test_factor_or_prefactor_of_the_wrong_length_rejected(key):
    """An exponent tuple or prefactor with an entry too many or too few is
    refused when built, with the statement's key, instead of being cut short
    or failing deep in a verification."""
    spec = spec_by_key(key)
    changes = list(_arity_changes(spec))
    assert len(changes) == 4 * (1 + (spec.product_alt is not None)) + 2 * 3 + 2
    for change in changes:
        with pytest.raises(ValueError, match=f"^{key}: every factor and prefactor needs"):
            _rebuilt(spec, **change)


@pytest.mark.parametrize("key, other", (("g1-four", "g1-xzq"), ("g1-xzq", "g1-four")))
def test_weight_map_into_another_ring_rejected(key, other):
    """Every side is built in the target ring of the weight map, so a map into
    another ring than the one the statement's factors were written for is
    refused when built: the factors have the wrong number of entries."""
    with pytest.raises(ValueError, match=f"^{key}: every factor and prefactor needs"):
        _rebuilt(spec_by_key(key), weight_map=spec_by_key(other).weight_map)


def _rebuilt_summands(ring, fam, trunc):
    """Each summand built from scratch, with its numerator polynomial: the
    prefactor monomial times every numerator binomial, in ascending degree
    through the general product, truncated once the binomials of negative
    degree are in; and that times the inverted denominator runs."""
    one = (0,) * ring.nvars
    runs = [
        (f, islice(running_product(ring, f, trunc), f.count[1], None, f.count[0]))
        for f in fam.factors
        if f.inverted
    ]
    for n in count():
        pairs = n * (n - 1) // 2
        poly = Series.monomial(ring, 1, tuple(c2 * pairs + c1 * n + c0 for c2, c1, c0 in fam.prefactor))
        binomials = sorted(
            ((f.sign, f.argument(i)) for f in fam.factors if not f.inverted
             for i in range(f.count[0] * n + f.count[1])),
            key=lambda b: ring.degree(b[1]),
        )
        for sign, exps in binomials:
            if ring.degree(exps) >= 0 and poly.trunc is None:
                poly = poly.truncate(trunc)
            binomial = {one: 1}
            binomial[exps] = binomial.get(exps, 0) - sign  # exps may be ``one``
            poly = poly * Series(ring, binomial, None)
        poly = term = poly.truncate(trunc)
        for _, run in runs:
            term = term * next(run)
        yield poly, term


@pytest.mark.parametrize("key", [s.key for s in registry() if s.series])
def test_forward_pass_matches_rebuilt_summands(key):
    """Stepping each numerator polynomial from the one before gives the ones
    built from scratch, each level's Horner run alone (the levels below it
    with zero numerators) gives the rebuilt summand, and the forward pass
    stops only once the rebuilt numerators vanish."""
    spec = spec_by_key(key)
    for trunc in range(25):
        zero = Series.zero(spec.ring, trunc)
        for fam in spec.series:
            levels = fam.levels(spec.ring, trunc)
            rebuilt = list(islice(_rebuilt_summands(spec.ring, fam, trunc), len(levels) + 3))
            for n, ((poly, divisors), (p, term)) in enumerate(zip(levels, rebuilt)):
                assert (poly, poly.trunc) == (p, p.trunc), (trunc, n)
                assert not poly.is_zero()
                alone = horner_sum(spec.ring, trunc, [(zero, d) for _, d in levels[:n]] + [(poly, divisors)])
                assert (alone, alone.trunc) == (term, term.trunc), (trunc, n)
            assert all(p.is_zero() for p, _ in rebuilt[len(levels):]), trunc


def _shifted_denominator(real):
    def binomials(self, n):
        exps = real(self, n)
        if self.inverted:
            return [tuple(e + b for e, b in zip(x, self.base_exps)) for x in exps]
        return exps

    return binomials


def _dropped_numerator(real):
    def binomials(self, n):
        exps = real(self, n)
        return exps[:-1] if n and not self.inverted else exps

    return binomials


def _at_degree(failure):
    """Total degree of the first four-variable exponent tuple a failure names."""
    at = re.search(r"at \(([-\d, ]+)\)", failure).group(1)
    return sum(int(e) for e in at.split(","))


@pytest.mark.parametrize("fault", (_shifted_denominator, _dropped_numerator),
                         ids=("shifted-denominator", "dropped-numerator"))
def test_forward_pass_faults_are_caught(monkeypatch, fault):
    """A forward pass that shifts every denominator index by one, or drops the
    new numerator binomial from each step polynomial, fails a four-variable and a
    three-variable identity, a summation check and the partial sums, each with
    a first difference by degree 8."""
    monkeypatch.setattr(PochFactor, "binomials", fault(PochFactor.binomials))
    for key in ("g1-four", "g1-xzq"):
        report = verify_spec(spec_by_key(key), 16)
        assert not report.passed, key
        degrees = re.findall(r"degree-(\d+) slices", " ".join(report.failures))
        assert min(int(d) for d in degrees) <= 8, key
    gauss = check_q_gauss((1, 0, 0, 0), (0, 1, 0, 0), (2, 2, 1, 1), 16)
    assert not gauss.passed
    assert _at_degree(gauss.failures[0]) <= 8
    partial = verify_partial_sums(PartitionClass.P1, 4, 16)
    assert not partial.passed
    assert _at_degree(partial.failures[0]) <= 8


def _stopped_one_early(real):
    def levels(*args):
        return list(real(*args))[:-1]

    return levels


class _SlicedOneOff(list):
    """Levels whose slices end ``shift`` levels past where they are asked to."""

    def __init__(self, levels, shift):
        super().__init__(levels)
        self.shift = shift

    def __getitem__(self, key):
        if isinstance(key, slice):
            key = slice(key.start, key.stop + self.shift, key.step)
        return super().__getitem__(key)


@pytest.mark.parametrize("shift", (-1, 1), ids=("one-level-too-few", "one-level-too-many"))
def test_partial_sums_reading_the_wrong_levels_fail(monkeypatch, shift):
    """Partial sums ``F(N)`` that read one Horner level too few or too many
    fail both partial-sum checks at trunc 8."""
    real = SumFamily.levels
    monkeypatch.setattr(
        SumFamily,
        "levels",
        lambda self, ring, trunc, count: _SlicedOneOff(real(self, ring, trunc, count + 1), shift),
    )
    for cls in (PartitionClass.P1, PartitionClass.P2):
        report = verify_partial_sums(cls, 4, 8)
        assert not report.passed, cls
        assert _at_degree(report.failures[0]) <= 8


def test_partial_sums_draw_only_the_levels_they_read(monkeypatch):
    """Partial sums up to ``N = 4`` draw five levels from each family's
    forward pass, which at trunc 48 has more than that."""
    real = identities.sum_levels
    drawn = []

    def counted(*args):
        drawn.append(0)
        for level in real(*args):
            drawn[-1] += 1
            yield level

    monkeypatch.setattr(identities, "sum_levels", counted)
    for cls, key in ((PartitionClass.P1, "p1-four"), (PartitionClass.P2, "p2-four")):
        drawn.clear()
        assert verify_partial_sums(cls, 4, 48).passed
        assert drawn == [5, 5], cls
        assert all(len(fam.levels(FOUR_PARAM, 48)) > 5 for fam in spec_by_key(key).series)


def test_forward_pass_stopping_one_level_early_fails(monkeypatch):
    """A forward pass that stops one numerator polynomial early fails a
    four-variable and a three-variable identity, a summation check and the
    partial sums, each by degree 8."""
    monkeypatch.setattr(qseries, "sum_levels", _stopped_one_early(qseries.sum_levels))
    monkeypatch.setattr(identities, "sum_levels", _stopped_one_early(identities.sum_levels))
    for key in ("g1-four", "g1-xzq"):
        report = verify_spec(spec_by_key(key), 8)
        assert not report.passed, key
        assert min(int(d) for d in re.findall(r"degree-(\d+) slices", " ".join(report.failures))) <= 8
    gauss = check_q_gauss((1, 0, 0, 0), (0, 1, 0, 0), (2, 2, 1, 1), 8)
    assert not gauss.passed
    assert _at_degree(gauss.failures[0]) <= 8
    partial = verify_partial_sums(PartitionClass.P1, 4, 8)
    assert not partial.passed
    assert _at_degree(partial.failures[0]) <= 8


@pytest.mark.parametrize("ring", (FOUR_PARAM, XZQ), ids=lambda ring: "".join(ring.names))
def test_no_level_sums_to_zero_in_its_ring(ring):
    """A Horner run over no level is zero, in its ring, at its truncation."""
    for trunc in range(3):
        total = horner_sum(ring, trunc, [])
        assert (total, total.trunc, total.ring) == (Series.zero(ring, trunc), trunc, ring)


@pytest.mark.parametrize("cls, key", ((PartitionClass.P1, "p1-four"), (PartitionClass.P2, "p2-four")),
                         ids=("p1", "p2"))
def test_partial_sums_of_a_family_with_no_level(cls, key):
    """At trunc 0 and 1 the second family's ``P_0`` has degree 2, so it has no
    level; its partial sums are zero and the checks still pass."""
    second = spec_by_key(key).series[1]
    for trunc in (0, 1):
        assert second.levels(FOUR_PARAM, trunc) == []
        report = verify_partial_sums(cls, 4, trunc)
        assert report.passed, report.failures
    assert second.levels(FOUR_PARAM, 2) != []


# -- nested family sums against the rebuilt summands ---------------------------------


def _exps(draw, ring, low, high, positive):
    """An exponent tuple in ``ring``: weight-0 entries of ``XZQ`` in [-2, 2],
    the others in [low, high], with positive degree when asked."""
    while True:
        exps = tuple(
            draw(st.integers(min_value=-2 if w == 0 else low, max_value=2 if w == 0 else high))
            for w in ring.weights
        )
        if not positive or ring.degree(exps) > 0:
            return exps


def _family_degree(ring, factors, n):
    """The least degree the new numerator binomials of summand ``n`` can add."""
    return sum(
        min(0, ring.degree(e)) for f in factors if not f.inverted for e in f.binomials(n)
    )


@st.composite
def families(draw):
    """A ring, a series family that passes ``TheoremSpec``, and a truncation in
    0..40.  Numerator arguments may have negative degree and negative
    exponents, ``XZQ`` denominators negative weight-0 exponents; the
    prefactor's ``n`` and constant columns are raised just enough that the
    first step polynomial and the first summand have no term of negative
    degree."""
    ring = draw(st.sampled_from([FOUR_PARAM, XZQ]))
    factors = []
    for inverted in [False] * draw(st.integers(0, 2)) + [True] * draw(st.integers(0, 2)):
        arg = _exps(draw, ring, 0 if inverted else -1, 2, inverted)
        base = _exps(draw, ring, 0, 2, True)
        count = (draw(st.integers(1, 2)), draw(st.integers(0, 1)))
        factors.append(PochFactor(draw(st.sampled_from([1, -1])), arg, base, count, inverted))
    weighted = ring.weights.index(1)  # the first variable of weight 1
    columns = []
    for w in ring.weights:
        c2 = draw(st.integers(-1 if w == 0 else 0, 1))
        columns.append([c2, draw(st.integers(-1, 2)), draw(st.integers(-2 if w == 0 else 0, 2))])
    degree = lambda col: sum(w * c[col] for w, c in zip(ring.weights, columns))  # noqa: E731
    columns[weighted][1] += max(0, -_family_degree(ring, factors, 1) - degree(1))
    if degree(0) == degree(1) == 0:
        columns[weighted][1] += 1
    columns[weighted][2] += max(0, -_family_degree(ring, factors, 0) - degree(2))
    family = SumFamily(tuple(map(tuple, columns)), tuple(factors))
    host = spec_by_key("g1-four" if ring is FOUR_PARAM else "g1-xzq")
    _rebuilt(host, series=(family,))  # TheoremSpec accepts it
    trunc = draw(st.one_of(st.integers(0, 12), st.integers(0, 40)))
    return ring, family, trunc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families())
def test_horner_sum_matches_rebuilt_summands(case):
    """(a) The Horner run over the family's levels equals the summands built
    from scratch, up to the first numerator with no term at or below the
    truncation, added with ``plus``, with the same truncation; the next two
    numerators vanish too.  (b) Where every denominator has nonnegative
    exponents, the verdict read off the level polynomials names exactly the
    rebuilt summands with a negative exponent, and in the four-parameter ring
    it is the one ``series_side`` reports."""
    ring, family, trunc = case
    rebuilt = _rebuilt_summands(ring, family, trunc)
    summands = []
    for poly, term in rebuilt:
        if poly.is_zero():
            break
        summands.append(term)
    assert all(poly.is_zero() for poly, _ in islice(rebuilt, 2))
    expected = Series.zero(ring, trunc).plus(summands)
    levels = family.levels(ring, trunc)
    got = horner_sum(ring, trunc, levels)
    assert (got, got.trunc) == (expected, expected.trunc)
    negative = [n for n, (poly, _) in enumerate(levels) if poly.has_negative_exponent()]
    if all(min(f.arg_exps + f.base_exps) >= 0 for f in family.factors if f.inverted):
        assert negative == [n for n, t in enumerate(summands) if t.has_negative_exponent()]
    if ring is FOUR_PARAM:
        reported: list[str] = []
        series_side(_rebuilt(spec_by_key("g1-four"), series=(family,)), trunc, reported)
        assert reported == [f"summand n={n}: negative exponent in expansion" for n in negative]


def test_negative_summand_exponent_is_reported():
    """A numerator argument a*c/b passes ``TheoremSpec`` but puts b^-1 into
    the summands from n=1 on; the nonnegativity check reports it."""
    spec = spec_by_key("g1-four")
    fam = spec.series[0]
    numerator = _rebuilt(fam.factors[0], arg_exps=(1, -1, 1, 0))
    family = _rebuilt(fam, factors=(numerator,) + fam.factors[1:])
    report = verify_spec(_rebuilt(spec, series=(family,)), 8)
    assert not report.passed
    assert "summand n=1: negative exponent in expansion" in report.failures


def test_series_error_of_a_side_fails_the_report(monkeypatch):
    """A side that cannot be compared, here a combinatorial side one degree
    short, fails the identity's report on the error it raises."""
    real = identities.class_weight_series
    monkeypatch.setattr(
        identities, "class_weight_series", lambda cls, trunc, m: real(cls, trunc - 1, m)
    )
    report = verify_spec(spec_by_key("g1-four"), 8)
    assert not report.passed
    assert report.failures == ("TruncationMismatch: 7 vs 8",)


def test_four_parameter_denominator_with_negative_exponent_rejected():
    """The nonnegativity check reads the numerators, which needs denominator
    monomials with nonnegative exponents: a four-parameter family is refused
    otherwise, while a three-variable one may have negative weight-0 ones."""
    spec = spec_by_key("g1-four")
    fam = spec.series[0]
    den = _rebuilt(fam.factors[1], arg_exps=(2, -1, 0, 0))
    with pytest.raises(ValueError, match="denominator has a negative exponent"):
        _rebuilt(spec, series=(_rebuilt(fam, factors=(fam.factors[0], den, fam.factors[2])),))
    xzq = spec_by_key("g1-xzq")
    fam = xzq.series[0]
    den = _rebuilt(fam.factors[1], arg_exps=(-1, 2, 2))
    _rebuilt(xzq, series=(_rebuilt(fam, factors=(fam.factors[0], den, fam.factors[2])),))


def _lost_summand(steps):
    """The Horner run without its first ``add``: the top summand is lost, as
    a loop stopping one level short would lose it."""
    first = next(i for i, step in enumerate(steps) if step[0] == "add")
    return steps[:first] + steps[first + 1:]


def _lost_last_summand(steps):
    """The Horner run without its last ``add``: ``P_0``, the bottom summand,
    is lost, as a loop stopping before index 0 would lose it."""
    last = max(i for i, step in enumerate(steps) if step[0] == "add")
    return steps[:last] + steps[last + 1:]


def _lost_last_division(steps):
    """The Horner run without its last ``over``: one binomial of the lowest
    level that has one is never divided out."""
    last = max(i for i, step in enumerate(steps) if step[0] == "over")
    return steps[:last] + steps[last + 1:]


def _levels_one_lower(steps):
    """Every summand added truncated one degree below the run."""
    return [
        ("add", step[1].truncate(step[1].trunc - 1)) if step[0] == "add" else step
        for step in steps
    ]


def _divided_one_level_early(steps):
    """Each summand's divisions applied after the ``add`` of the summand above
    it: ``P_k`` is divided by the binomials up to ``delta_(k-1)``, and ``P_0``
    by none."""
    groups = []  # [an add, the divisions after it]
    for step in steps:
        if step[0] == "add":
            groups.append([step, []])
        else:
            groups[-1][1].append(step)
    shifted = [divisions for _, divisions in groups[1:]] + [[]]
    return [s for (add, _), divs in zip(groups, shifted) for s in (add, *divs)]


def _horner_fault(fault):
    """``Series.times_run`` with ``fault`` applied to every run that both adds
    and divides: the series sums' Horner runs."""
    real = Series.times_run

    def run(self, steps):
        steps = list(steps)
        kinds = {step[0] for step in steps}
        return real(self, fault(steps) if {"add", "over"} <= kinds else steps)

    return run


@pytest.mark.parametrize(
    "fault",
    (_lost_summand, _lost_last_summand, _lost_last_division, _divided_one_level_early),
    ids=("lost-summand", "lost-last-summand", "lost-last-division", "divided-one-level-early"),
)
def test_horner_faults_are_caught(monkeypatch, fault):
    """A Horner run that loses its top or bottom summand, skips a division,
    or divides each level by the binomials of the level below fails a catalog
    identity and a summation check, each with a first difference by degree
    8."""
    monkeypatch.setattr(Series, "times_run", _horner_fault(fault))
    report = verify_spec(spec_by_key("g1-four"), 8)
    assert not report.passed
    assert min(int(d) for d in re.findall(r"degree-(\d+) slices", " ".join(report.failures))) <= 8
    minus_b = Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0))
    gauss = check_q_gauss(A_INFINITY, minus_b, (1, 1, 0, 0), 8)
    assert not gauss.passed
    assert _at_degree(gauss.failures[0]) <= 8


def test_level_kept_one_degree_short_is_refused(monkeypatch):
    """A summand added one degree below the run's truncation would leave the
    sum unknown at its top degree: the run refuses it instead of returning a
    short sum, and the identity's report fails on the refusal."""
    monkeypatch.setattr(Series, "times_run", _horner_fault(_levels_one_lower))
    report = verify_spec(spec_by_key("g1-four"), 8)
    assert not report.passed
    assert report.failures[-1].startswith("TruncationMismatch: ")
    with pytest.raises(TruncationMismatch):
        check_q_gauss(A_INFINITY, Series.monomial(FOUR_PARAM, -1, (0, 1, 0, 0)), (1, 1, 0, 0), 8)


@pytest.mark.parametrize("key", [spec.key for spec in registry()])
def test_product_side_to_order_zero_is_not_complete(key):
    """To order 0 every product side reads 1, but each has terms above order
    0, so its truncation cannot be raised."""
    product = product_side(spec_by_key(key), 0)
    assert product == Series.one(product.ring, 0)
    with pytest.raises(PrecisionLoss):
        product.truncate(1)


@pytest.mark.parametrize("key", [spec.key for spec in registry() if spec.series])
def test_series_side_to_order_t_cannot_be_raised(key):
    """Every series side is truncated: its truncation cannot be raised, and a
    deeper side cut back to order ``t`` is the side to order ``t``."""
    spec = spec_by_key(key)
    for t in range(5):
        side = series_side(spec, t)
        with pytest.raises(PrecisionLoss):
            side.truncate(t + 1)
        assert series_side(spec, t + 3).truncate(t) == side, t


class TestMissingSides:
    def test_no_alternate_product(self):
        with pytest.raises(ValueError):
            product_side(spec_by_key("boulet-p"), 4, alt=True)

    def test_no_combinatorial_side(self):
        spec = _rebuilt(spec_by_key("g1-four"), partition_class=None)
        with pytest.raises(ValueError):
            combinatorial_side(spec, 4)

    def test_no_series_side(self):
        spec = _rebuilt(spec_by_key("g1-four"), series=())
        with pytest.raises(ValueError):
            series_side(spec, 4)


@pytest.mark.parametrize("key", ("g1-four", "p2-xzq", "g1-bg"))
def test_truncation_stability(key):
    """Deeper computations agree with shallower ones on the overlap."""
    spec = spec_by_key(key)
    deep = series_side(spec, 20)
    shallow = series_side(spec, 12)
    assert deep.truncate(12).terms == shallow.terms
    deep_p = product_side(spec, 20)
    shallow_p = product_side(spec, 12)
    assert deep_p.truncate(12).terms == shallow_p.terms


class TestPartialSums:
    @pytest.mark.parametrize("cls", (PartitionClass.P1, PartitionClass.P2),
                             ids=("p1", "p2"))
    def test_telescoping(self, cls):
        report = verify_partial_sums(cls, 4, 20)
        assert report.passed, report.failures
        assert report.name == f"partial-sums[{cls.value}]"

    def test_zeroth_partial_sum_alone(self):
        assert verify_partial_sums(PartitionClass.P1, 0, 12).passed

    def test_other_classes_rejected(self):
        with pytest.raises(ValueError):
            verify_partial_sums(PartitionClass.G1, 4, 12)

    @pytest.mark.parametrize("n_max, trunc", ((-1, 12), (2, -1)), ids=("n_max", "trunc"))
    def test_negative_bounds_rejected(self, n_max, trunc):
        with pytest.raises(ValueError, match="n_max and trunc must be nonnegative"):
            verify_partial_sums(PartitionClass.P1, n_max, trunc)


class TestSubstitutionConsistency:
    @pytest.mark.parametrize("map_id", ("xzq", "bg"))
    def test_maps_agree_with_statistics(self, map_id):
        (report,) = verify_substitution_consistency((map_id,), 14)
        assert report.passed, report.failures
        assert report.name == f"substitution[{map_id}]"

    def test_one_walk_serves_both_maps(self, monkeypatch):
        """Both reports read one walk, in the order their maps are given, and
        each report checks its map and the conjugation law per partition."""
        real = identities.members_by_weight
        walks = []

        def counted(cls, weight_max, weight_min=0):
            walks.append((cls, weight_max, weight_min))
            return real(cls, weight_max, weight_min)

        monkeypatch.setattr(identities, "members_by_weight", counted)
        reports = verify_substitution_consistency(("bg", "xzq"), 14)
        assert walks == [(PartitionClass.ALL, 14, 0)]
        assert [r.name for r in reports] == ["substitution[bg]", "substitution[xzq]"]
        members = sum(len(enumerate_partitions(PartitionClass.ALL, w)) for w in range(15))
        assert all(r.passed and r.checks == 2 * members for r in reports)

    @pytest.mark.parametrize(
        "fault, failing",
        (
            ("alt_sum", ("substitution[xzq]", "substitution[bg]")),  # and the conjugation law
            ("bg_rank", ("substitution[bg]",)),
        ),
        ids=("alt_sum", "bg_rank"),
    )
    def test_a_wrong_statistic_fails_its_map(self, monkeypatch, fault, failing):
        """A statistic off by one on one partition of weight 8 fails the
        map that reads it."""
        real = identities.stats
        target = Partition((5, 2, 1))

        def wrong(lam):
            st = real(lam)
            return st._replace(**{fault: getattr(st, fault) + 1}) if lam == target else st

        monkeypatch.setattr(identities, "stats", wrong)
        reports = verify_substitution_consistency(("xzq", "bg"), 8)
        assert tuple(r.name for r in reports if not r.passed) == failing
        failed = [line for r in reports for line in r.failures]
        assert failed and all(line.startswith(repr(target)) for line in failed), failed

    @pytest.mark.parametrize("map_ids", (("xq",), (), "xzq"), ids=("xq", "none", "bare-string"))
    def test_unknown_map(self, map_ids):
        with pytest.raises(ValueError):
            verify_substitution_consistency(map_ids, 10)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="weight_max must be nonnegative"):
            verify_substitution_consistency(("xzq",), -1)
