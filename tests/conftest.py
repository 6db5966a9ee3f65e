"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from sipq import partitions
from sipq.partitions import Partition


@pytest.fixture
def partitions_built(monkeypatch):
    """A one-item list that counts the partitions built while the test runs,
    by the generators' unchecked constructor or through :class:`Partition`."""
    built = [0]
    real_built, real_new = partitions._built, Partition.__new__

    def counted_built(parts):
        built[0] += 1
        return real_built(parts)

    def counted_new(cls, parts=()):
        built[0] += 1
        return real_new(cls, parts)

    monkeypatch.setattr(partitions, "_built", counted_built)
    monkeypatch.setattr(Partition, "__new__", counted_new)
    return built
