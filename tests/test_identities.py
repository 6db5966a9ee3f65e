"""The identity catalog: every registered statement, checked three ways."""

from __future__ import annotations

import dataclasses

import pytest

from sipq.identities import (
    UnknownTheorem,
    combinatorial_side,
    product_side,
    registry,
    series_side,
    spec_by_key,
    verify,
    verify_partial_sums,
    verify_spec,
    verify_substitution_consistency,
)
from sipq.partitions import PartitionClass

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
    report = verify(key, 12)
    assert report.passed, report.failures
    assert report.name == f"identity[{key}]"
    assert report.checks >= 1


def test_verify_rejects_negative_truncation():
    with pytest.raises(ValueError):
        verify("g1-four", -1)


class TestDetectsInjectedErrors:
    """A deliberately corrupted statement must be caught, with a located diff."""

    def test_wrong_class(self):
        spec = dataclasses.replace(spec_by_key("g1-four"), partition_class=PartitionClass.G2)
        report = verify_spec(spec, 8)
        assert not report.passed
        assert report.failures
        assert any("degree" in f for f in report.failures)

    def test_wrong_product_factor(self):
        spec = spec_by_key("g1-four")
        bad_factor = dataclasses.replace(spec.product[0], sign=-spec.product[0].sign)
        corrupted = dataclasses.replace(spec, product=(bad_factor,) + spec.product[1:])
        report = verify_spec(corrupted, 8)
        assert not report.passed

    def test_wrong_series_prefactor(self):
        spec = spec_by_key("g2-four")
        fam = spec.series[0]
        shifted = dataclasses.replace(
            fam, prefactor=tuple((c2, c1, c0 + 1) for c2, c1, c0 in fam.prefactor)
        )
        corrupted = dataclasses.replace(spec, series=(shifted,) + spec.series[1:])
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
            flipped = dataclasses.replace(f, sign=-f.sign)
            yield f"{field}[{i}].sign", dataclasses.replace(
                spec, **{field: _replace_at(factors, i, flipped)}
            )
    for k, fam in enumerate(spec.series):
        for i, f in enumerate(fam.factors):
            alpha, beta = f.count
            longer = dataclasses.replace(f, count=(alpha, beta + 1))
            family = dataclasses.replace(fam, factors=_replace_at(fam.factors, i, longer))
            yield f"series[{k}].factors[{i}].count", dataclasses.replace(
                spec, series=_replace_at(spec.series, k, family)
            )
        c2, c1, c0 = fam.prefactor[-1]
        family = dataclasses.replace(fam, prefactor=fam.prefactor[:-1] + ((c2, c1, c0 + 1),))
        yield f"series[{k}].prefactor[-1]", dataclasses.replace(
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


@pytest.mark.parametrize(
    "d_exponent",
    ((0, -4, 0), (-1, 0, 0)),
    ids=("linear-step", "quadratic-step"),
)
def test_decreasing_prefactor_rejected(d_exponent):
    """Summation stops at the first term past the truncation, so a family
    whose prefactor degree can decrease in n is refused when built."""
    spec = spec_by_key("p1-four")
    fam = dataclasses.replace(spec.series[0], prefactor=((0, 1, 0),) * 3 + (d_exponent,))
    with pytest.raises(ValueError, match="decreases"):
        dataclasses.replace(spec, series=(fam,))


class TestMissingSides:
    def test_no_alternate_product(self):
        with pytest.raises(ValueError):
            product_side(spec_by_key("boulet-p"), 4, alt=True)

    def test_no_combinatorial_side(self):
        spec = dataclasses.replace(spec_by_key("g1-four"), partition_class=None)
        with pytest.raises(ValueError):
            combinatorial_side(spec, 4)

    def test_no_series_side(self):
        spec = dataclasses.replace(spec_by_key("g1-four"), series=())
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


class TestSubstitutionConsistency:
    @pytest.mark.parametrize("map_id", ("xzq", "bg"))
    def test_maps_agree_with_statistics(self, map_id):
        report = verify_substitution_consistency(map_id, 14)
        assert report.passed, report.failures
        assert report.name == f"substitution[{map_id}]"

    def test_unknown_map(self):
        with pytest.raises(ValueError):
            verify_substitution_consistency("xq", 10)
