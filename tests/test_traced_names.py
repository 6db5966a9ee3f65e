"""The names that code outside the package reaches for: every layer the
benchmark tracer wraps, and every name ``sipq`` exports.  A deletion or a
rename of one fails here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import sipq

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    """Each ``(module, attribute)`` of the tracer's ``LAYERS`` names a
    function in that ``sipq`` module; a dotted attribute names a method in the
    class's own ``__dict__``, where the tracer patches it."""
    layers = runpy.run_path(str(TRACING))["LAYERS"]  # stdlib only; writes no bytecode
    unresolved = []
    for module_name, attr, label in layers:
        module = importlib.import_module(f"sipq.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            target = vars(owner).get(method) if owner is not None else None
        else:
            target = getattr(module, attr, None)
        if not callable(target):
            unresolved.append(label)
    assert len(layers) > 20
    assert unresolved == []


def test_every_export_resolves():
    assert [name for name in sipq.__all__ if not hasattr(sipq, name)] == []
