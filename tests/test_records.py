"""The package's records: immutable, validated on every construction path,
and defined without the dataclass machinery, which costs every CLI call."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import sipq
from sipq.identities import OMEGA_TO_XZQ, TheoremSpec, spec_by_key
from sipq.partitions import Partition, PartitionClass, omega_exponents, stats
from sipq.reporting import CheckReport
from sipq.series import FOUR_PARAM, XZQ, Series, SeriesRing, SubstitutionMap
from sipq.sip import decompose


def test_import_loads_no_dataclass_machinery():
    """`import sipq` is paid on every CLI call; the dataclass module and the
    `inspect` module it imports were most of that cost."""
    env = dict(os.environ)
    src = str(Path(sipq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # -S: no site hooks, so only the package's own imports are seen.
    done = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, sipq; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["[]"]


def _records():
    spec = spec_by_key("p1-four")
    return [
        stats(Partition((5, 3, 2))),
        omega_exponents(Partition((5, 3, 2))),
        Series.one(FOUR_PARAM).equal_to(Series.one(FOUR_PARAM)),
        decompose(PartitionClass.G1, Partition((11, 8, 7, 4))),
        CheckReport("demo", True, 1),
        spec.product[0],
        spec.series[0],
        FOUR_PARAM,
        OMEGA_TO_XZQ,
        spec,
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    """Neither a field nor a new attribute can be set or deleted."""
    names = getattr(record, "_fields", None) or type(record).__slots__
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])


def test_default_params_are_read_only():
    report = CheckReport("demo", True, 1)
    with pytest.raises(TypeError):
        report.params["weight_max"] = 3  # type: ignore[index]
    assert report.as_dict()["params"] == {}


def test_ring_equality_and_hash_use_names_and_weights():
    ring = SeriesRing(("a", "b", "c", "d"), (1, 1, 1, 1))
    assert ring == FOUR_PARAM and hash(ring) == hash(FOUR_PARAM)
    assert ring != SeriesRing(("a", "b", "c", "d"), (1, 1, 1, 2))
    assert ring != SeriesRing(("w", "b", "c", "d"), (1, 1, 1, 1))
    assert repr(XZQ) == "SeriesRing(names=('x', 'z', 'q'), weights=(0, 0, 1))"


_CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_ring_copies_still_unpack(clone):
    """A copied ring is rebuilt by its constructor, derived packing included."""
    ring = clone(XZQ)
    assert ring == XZQ
    assert ring.unpack(ring.pack((-3, 2, 5))) == (-3, 2, 5)


@pytest.mark.parametrize(
    "names, weights, message",
    (
        (("a", "b"), (1,), "equal length"),
        (("a", "b"), (1, -1), "grading weights must be nonnegative"),
    ),
)
def test_ring_rejects_invalid_fields(names, weights, message):
    with pytest.raises(ValueError, match=message):
        SeriesRing(names, weights)


# Each construction path of a validating NamedTuple: the constructor, and the
# `_make` and `_replace` that the generated class would run without it.
_PATHS = {
    "constructor": lambda record, changes: type(record)(**{**record._asdict(), **changes}),
    "_make": lambda record, changes: type(record)._make({**record._asdict(), **changes}.values()),
    "_replace": lambda record, changes: record._replace(**changes),
}


@pytest.mark.parametrize("path", _PATHS.values(), ids=_PATHS.keys())
@pytest.mark.parametrize(
    "changes, message",
    (
        ({"images": ((1, 1, 1),) * 3}, "one image per source variable required"),
        ({"images": ((1, 1),) * 4}, "has wrong arity"),
        ({"target": FOUR_PARAM}, "has wrong arity"),
    ),
)
def test_substitution_map_rejects_invalid_fields(path, changes, message):
    with pytest.raises(ValueError, match=message):
        path(OMEGA_TO_XZQ, changes)


def _flat_family():
    fam = spec_by_key("g1-bg").series[0]
    return fam._replace(prefactor=((0, 0, 0),) * 3)


@pytest.mark.parametrize("path", _PATHS.values(), ids=_PATHS.keys())
@pytest.mark.parametrize(
    "key, changes, message",
    (
        ("g1-four", {"weight_map": OMEGA_TO_XZQ}, "every factor and prefactor needs 3"),
        ("g1-bg", {"series": (_flat_family(),)}, "never grows"),
    ),
)
def test_theorem_spec_rejects_invalid_fields(path, key, changes, message):
    with pytest.raises(ValueError, match=message):
        path(spec_by_key(key), changes)


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_validated_records_survive_copies(clone):
    spec = spec_by_key("p2-xzq")
    assert clone(spec) == spec and type(clone(spec)) is TheoremSpec
    assert clone(OMEGA_TO_XZQ) == OMEGA_TO_XZQ and type(clone(OMEGA_TO_XZQ)) is SubstitutionMap
