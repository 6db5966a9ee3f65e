"""Span tracing of sipq's public functions, installed from outside the package.

The benchmark times layers without editing ``sipq``: :func:`install` replaces
each function listed in :data:`LAYERS` by a wrapper that records one span per
call, in every ``sipq`` module namespace that holds the function (a name
imported with ``from .partitions import enumerate_partitions`` is a separate
binding and must be patched too), including module-level dispatch tables.  Methods of :class:`sipq.series.Series` are
patched on the class.

A span is ``[label, start, end, parent, outermost]``.  ``parent`` is the
index of the enclosing traced span (-1 for none) and ``outermost`` is false
for a call nested inside another call of the same label (a recursive or
re-entrant call), so that ``total_s`` does not count the same interval twice.
Self time is a span's duration minus the durations of its direct children.

Per-member helpers such as ``omega_exponents`` are deliberately not wrapped:
they are called millions of times and the wrapper would dominate the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, label).  A dotted attribute names a method of a class.
LAYERS = (
    ("partitions", "basis_members_of_length", "partitions.basis_members_of_length"),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("identities", "combinatorial_side", "identities.combinatorial_side"),
    ("identities", "series_side", "identities.series_side"),
    ("identities", "product_side", "identities.product_side"),
    ("identities", "verify_spec", "identities.verify_spec"),
    ("identities", "verify_partial_sums", "identities.verify_partial_sums"),
    ("identities", "verify_substitution_consistency", "identities.verify_substitution_consistency"),
    ("series", "Series.__mul__", "series.mul"),
    ("series", "Series.__add__", "series.add"),
    ("series", "Series.invert_unit", "series.invert_unit"),
    ("series", "Series.equal_to", "series.equal_to"),
    ("qseries", "pochhammer_infinite", "qseries.pochhammer_infinite"),
    ("qseries", "pochhammer_finite", "qseries.pochhammer_finite"),
    ("qseries", "check_q_gauss", "qseries.check_q_gauss"),
    ("qseries", "check_qbinomial_recurrences", "qseries.check_qbinomial_recurrences"),
    ("qseries", "check_qbinomial_theorem", "qseries.check_qbinomial_theorem"),
    ("sip", "sip_gf_single_variable", "sip.sip_gf_single_variable"),
    ("sip", "check_sip_gf_four_parameter", "sip.check_sip_gf_four_parameter"),
    ("sip", "verify_sip_property", "sip.verify_sip_property"),
    ("sip", "decompose", "sip.decompose"),
    ("basis_gf", "cross_check_tables", "basis_gf.cross_check_tables"),
    ("basis_gf", "table_enumerated", "basis_gf.table_enumerated"),
    ("basis_gf", "table_recurrence", "basis_gf.table_recurrence"),
    ("basis_gf", "table_closed_form", "basis_gf.table_closed_form"),
    ("cli", "main", "cli.main"),
)

# The per-layer metrics the benchmark reports, as (name, unit, better).
# Names are ``<module>.<function>.<quantity>``; the list is mirrored in
# BENCHMARK.json's ``per_layer``.
METRICS = (
    ("partitions.basis_members_of_length.self_s", "s", "lower"),
    ("partitions.basis_members_of_length.calls", "count", "lower"),
    ("partitions.basis_members_of_length.members", "count", "lower"),
    ("partitions.basis_members_of_length.useful_ratio", "ratio", "higher"),
    ("partitions.enumerate_partitions.self_s", "s", "lower"),
    ("partitions.enumerate_partitions.calls", "count", "lower"),
    ("partitions.enumerate_partitions.members", "count", "lower"),
    ("partitions.enumerate_partitions.repeat_share", "ratio", "lower"),
    ("identities.combinatorial_side.self_s", "s", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.term_pairs", "count", "lower"),
    ("series.invert_unit.total_s", "s", "lower"),
    ("series.invert_unit.calls", "count", "lower"),
    ("series.invert_unit.mul_calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.equal_to.self_s", "s", "lower"),
    ("qseries.pochhammer_infinite.total_s", "s", "lower"),
    ("qseries.pochhammer_finite.total_s", "s", "lower"),
    ("identities.series_side.total_s", "s", "lower"),
    ("identities.product_side.total_s", "s", "lower"),
    ("sip.sip_gf_single_variable.total_s", "s", "lower"),
    ("sip.check_sip_gf_four_parameter.total_s", "s", "lower"),
    ("sip.verify_sip_property.total_s", "s", "lower"),
    ("sip.decompose.calls", "count", "lower"),
    ("basis_gf.cross_check_tables.total_s", "s", "lower"),
    ("basis_gf.table_enumerated.total_s", "s", "lower"),
    ("basis_gf.table_recurrence.total_s", "s", "lower"),
    ("basis_gf.table_closed_form.total_s", "s", "lower"),
    ("qseries.check_q_gauss.total_s", "s", "lower"),
    ("qseries.check_qbinomial_recurrences.total_s", "s", "lower"),
    ("qseries.check_qbinomial_theorem.total_s", "s", "lower"),
    ("identities.verify_partial_sums.total_s", "s", "lower"),
    ("identities.verify_substitution_consistency.total_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("identities.verify_spec.total_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("host.calib_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics the traced child computes from its spans and counters; the other
# three come from the harness (cpu and calibration of untraced children, and
# the traced-minus-untraced wall time).
HARNESS_METRICS = ("process.cpu_s", "host.calib_s", "trace.overhead_s")


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self, trunc: int) -> None:
        self.trunc = trunc
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._seen_enum_args: set = set()
        self._useful_by_result: dict[int, tuple] = {}

    def wrap(self, label, fn, after=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1], depth[0] == 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            depth[0] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[0] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters, run after the wrapped call has returned --------------------

    def _count_mul(self, args, kwargs, result) -> None:
        self.counts["series.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _count_basis(self, args, kwargs, result) -> None:
        # The function is memoised, so repeated calls return the same tuple.
        key = id(result)
        if key not in self._useful_by_result:
            # Keep the tuple alive so its id cannot be reused.
            self._useful_by_result[key] = (result, sum(1 for beta in result if sum(beta) <= self.trunc))
        useful = self._useful_by_result[key][1]
        self.counts["partitions.basis_members_of_length.members"] += len(result)
        self.counts["partitions.basis_members_of_length.useful"] += useful

    def _count_enum(self, args, kwargs, result) -> None:
        self.counts["partitions.enumerate_partitions.members"] += len(result)
        call = (args, tuple(sorted(kwargs.items())))
        if call in self._seen_enum_args:
            self.counts["partitions.enumerate_partitions.repeats"] += 1
        else:
            self._seen_enum_args.add(call)

    # -- installation and output ---------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS`; ``sipq`` must be imported."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "sipq" or name.startswith("sipq.")]
        hooks = {
            "series.mul": self._count_mul,
            "partitions.basis_members_of_length": self._count_basis,
            "partitions.enumerate_partitions": self._count_enum,
        }
        for module_name, attr, label in LAYERS:
            module = sys.modules[f"sipq.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(label, cls.__dict__[method], hooks.get(label)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(label, original, hooks.get(label))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if name.startswith("__"):
                        continue
                    swapped = _swap(value, original, wrapped)
                    if swapped is not value:
                        setattr(mod, name, swapped)

    def write(self, path) -> None:
        """Write the spans as JSON: label table plus [label, start, end, parent] rows."""
        labels = sorted({s[0] for s in self.spans})
        index = {label: i for i, label in enumerate(labels)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], s[1] - origin, s[2] - origin, s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": labels, "spans": rows}, fh, separators=(",", ":"))


def _swap(value, original, wrapped):
    """``value`` with ``original`` replaced by ``wrapped``, also inside the
    module-level tuples, lists and dicts that dispatch on functions (for
    example ``basis_gf._METHODS``).  Returns ``value`` itself when unchanged."""
    if value is original:
        return wrapped
    if type(value) is tuple:
        items = tuple(_swap(v, original, wrapped) for v in value)
        return items if any(a is not b for a, b in zip(items, value)) else value
    if type(value) in (list, dict):
        for key in range(len(value)) if type(value) is list else list(value):
            item = _swap(value[key], original, wrapped)
            if item is not value[key]:
                value[key] = item
    return value


def summarize(spans, counts) -> dict[str, float]:
    """Self time, outermost total time and calls per label, plus the counters."""
    child_time = [0.0] * len(spans)
    for label, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    inverse_muls = 0
    for i, (label, start, end, parent, outermost) in enumerate(spans):
        row = agg[label]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if outermost:
            row["total_s"] += end - start
        if label == "series.mul" and parent >= 0 and spans[parent][0] == "series.invert_unit":
            inverse_muls += 1
    out: dict[str, float] = {}
    for name, _, _ in METRICS:
        if name in HARNESS_METRICS:
            continue
        layer, quantity = name.rsplit(".", 1)
        if quantity in ("self_s", "total_s", "calls"):
            out[name] = agg[layer][quantity] if layer in agg else 0
    members = counts.get("partitions.basis_members_of_length.members", 0)
    useful = counts.get("partitions.basis_members_of_length.useful", 0)
    enum_calls = agg["partitions.enumerate_partitions"]["calls"] if "partitions.enumerate_partitions" in agg else 0
    out["partitions.basis_members_of_length.members"] = members
    out["partitions.basis_members_of_length.useful_ratio"] = useful / members if members else 0.0
    out["partitions.enumerate_partitions.members"] = counts.get("partitions.enumerate_partitions.members", 0)
    out["partitions.enumerate_partitions.repeat_share"] = (
        counts.get("partitions.enumerate_partitions.repeats", 0) / enum_calls if enum_calls else 0.0
    )
    out["series.mul.term_pairs"] = counts.get("series.mul.term_pairs", 0)
    out["series.invert_unit.mul_calls"] = inverse_muls
    return out

