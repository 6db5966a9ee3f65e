"""Batch command-line surface: enumerate, decompose, verify, series, table.

Output on standard output is deterministic: JSON is serialized with sorted
keys and fixed indentation, CSV rows come out in a fixed grid order, and
coefficients are decimal strings so arbitrary precision survives the round
trip.  Wall-clock diagnostics go to standard error only.  Exit codes: 0 on
success, 1 when a requested verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import Iterable, Iterator

from . import identities, qseries, sip
from .basis_gf import _METHODS as _TABLE_METHODS, cross_check_tables
from .partitions import (
    Partition,
    PartitionClass,
    enumerate_partitions,
    omega_exponents,
    stats,
)
from .reporting import CheckReport

_SCHEMA_VERSION = 1
_DEFAULT_TRUNC = 16

_CLASS_CHOICES = sorted(cls.value for cls in sip.DECOMPOSABLE)
# `verify --all` runs the reports that walk every member, `sip-property` and
# the two `substitution` reports, at most at this truncation.  At trunc 24 they
# would take 0.16-0.18 s instead of 0.025-0.027 s (quartiles of 8 fresh
# processes, Python 3.11.7, 2-core host), more than the whole trunc-24 run
# takes now (0.08-0.14 s).
_MEMBERWISE_TRUNC_CAP = 16
# `verify --all` cross-checks every basis table up to this length and largest
# part, and `tables-check` runs at it by default, so that the command
# reproduces the battery's report.
_TABLE_BOUND = 12


def _default_trunc() -> int:
    """The truncation in ``SIPQ_TRUNC``, or 16 when it is unset or empty.

    Raises ValueError when the variable is not a nonnegative integer.
    """
    raw = os.environ.get("SIPQ_TRUNC", "")
    if not raw:
        return _DEFAULT_TRUNC
    value = int(raw)
    if value < 0:
        raise ValueError(f"negative truncation {value}")
    return value


def _emit_json(command: str, params: dict[str, object], results: object) -> None:
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    return Partition(tuple(int(piece.strip()) for piece in text.split(",")))


def _partition_record(lam: Partition) -> dict[str, object]:
    st = stats(lam)
    om = omega_exponents(lam)
    return {
        "partition": list(lam),
        "weight": st.weight,
        "length": st.length,
        "alt_sum": st.alt_sum,
        "odd_parts": st.odd_parts,
        "bg_rank": st.bg_rank,
        "omega": {"a": om.a, "b": om.b, "c": om.c, "d": om.d},
    }


def _cmd_enumerate(args: argparse.Namespace) -> int:
    cls = PartitionClass(args.cls)
    members = enumerate_partitions(cls, args.weight)
    if args.format == "json":
        _emit_json(
            "enumerate",
            {"class": cls.value, "weight": args.weight},
            [_partition_record(lam) for lam in members],
        )
        return 0
    counts = ("weight", "length", "alt_sum", "odd_parts", "bg_rank")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["partition", *counts, "a", "b", "c", "d"])
    for lam in members:
        record = _partition_record(lam)
        writer.writerow(
            [",".join(map(str, lam)), *(record[k] for k in counts), *record["omega"].values()]
        )
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    cls = PartitionClass(args.cls)
    try:
        lam = _parse_partition(args.partition)
    except ValueError as exc:
        _diag(f"invalid partition literal: {exc}")
        return 2
    try:
        dec = sip.decompose(cls, lam)
    except sip.NotInClass as exc:
        _diag(str(exc))
        return 2
    _emit_json(
        "decompose",
        {"class": cls.value, "partition": list(lam)},
        {"beta": list(dec.beta), "mu": list(dec.mu), "modulus": dec.modulus},
    )
    return 0


def _full_battery(trunc: int) -> Iterator[CheckReport]:
    """Everything `verify --all` runs, in fixed order, each built when drawn."""
    for spec in identities.registry():
        yield identities.verify_spec(spec, trunc)
    for cls in sip.DECOMPOSABLE:
        yield cross_check_tables(cls.basis, _TABLE_BOUND, _TABLE_BOUND)
    small = min(trunc, _MEMBERWISE_TRUNC_CAP)
    for cls in sip.DECOMPOSABLE:
        yield sip.verify_sip_property(cls, small)
        yield sip.sip_gf_single_variable(cls, trunc)
        yield sip.check_sip_gf_four_parameter(cls, trunc)
    yield qseries.check_qbinomial_recurrences(10)
    for z in ((1, (1, 2, 1, 1)), (1, (1, 1, 0, 1))):
        yield qseries.check_qbinomial_theorem(6, z)
    # Signed monomials (coeff, exps): b = -b and b = -1/c in the limit, c = ab.
    for b in ((-1, (0, 1, 0, 0)), (-1, (0, 0, -1, 0))):
        yield qseries.check_q_gauss(qseries.A_INFINITY, b, (1, (1, 1, 0, 0)), trunc)
    a, b, c = (1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)), (1, (2, 2, 1, 1))
    yield qseries.check_q_gauss(a, b, c, trunc)
    for cls in (PartitionClass.P1, PartitionClass.P2):
        yield identities.verify_partial_sums(cls, 4, trunc)
    yield from identities.verify_substitution_consistency(small)


def _run_reports(command: str, params: dict[str, object], reports: Iterable[CheckReport]) -> int:
    """Draw ``reports`` in order, each one's seconds and name to stderr as it
    is built, then the count and total; print them as one JSON payload and
    return 0 when every report passed, else 1."""
    done: list[CheckReport] = []
    started = last = time.perf_counter()
    for report in reports:
        now = time.perf_counter()
        _diag(f"{command}: {now - last:.3f}s {report.name}")
        done.append(report)
        last = now
    _diag(f"{command}: {len(done)} reports in {last - started:.3f}s")
    _emit_json(command, params, [r.as_dict() for r in done])
    return 0 if all(r.passed for r in done) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all and args.ids:
        _diag("verify: give identity keys or --all, not both")
        return 2
    if not (args.all or args.ids):
        _diag("verify: give identity keys or --all")
        return 2
    try:
        specs = [identities.spec_by_key(key) for key in args.ids]
    except identities.UnknownTheorem as exc:
        _diag(f"unknown identity key: {exc}")
        return 2
    trunc = args.trunc
    named = (identities.verify_spec(spec, trunc) for spec in specs)
    params = {"trunc": trunc, "selection": "all" if args.all else list(args.ids)}
    return _run_reports("verify", params, _full_battery(trunc) if args.all else named)


def _cmd_series(args: argparse.Namespace) -> int:
    try:
        spec = identities.spec_by_key(args.spec)
    except identities.UnknownTheorem as exc:
        _diag(f"unknown identity key: {exc}")
        return 2
    try:
        if args.side == "combinatorial":
            series = identities.combinatorial_side(spec, args.trunc)
        elif args.side == "series":
            series = identities.series_side(spec, args.trunc)
        elif args.side == "product":
            series = identities.product_side(spec, args.trunc)
        else:
            series = identities.product_side(spec, args.trunc, alt=True)
    except ValueError as exc:
        _diag(str(exc))
        return 2
    _emit_json(
        "series",
        {"spec": spec.key, "side": args.side, "trunc": args.trunc},
        {"variables": list(spec.ring.names), "terms": series.to_records()},
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    basis = PartitionClass(args.basis).basis
    fn = dict(_TABLE_METHODS)[args.method]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["class", "method", "n", "h", "polynomial"])
    for n, row in enumerate(fn(basis, args.n_max, args.h_max)):
        for h, entry in enumerate(row):
            writer.writerow([basis.value, args.method, n, h, entry.to_string()])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipq",
        description=(
            "Exact generating-function toolkit for parity-constrained"
            " partition classes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list class members of one weight")
    p_enum.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=[c.value for c in PartitionClass],
    )
    p_enum.add_argument("--weight", type=int, required=True)
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_dec = sub.add_parser("decompose", help="split a member into skeleton and padding")
    p_dec.add_argument("--class", dest="cls", required=True, choices=_CLASS_CHOICES)
    p_dec.add_argument("--partition", required=True, help="comma-separated parts, e.g. 11,8,7,4")
    p_dec.set_defaults(handler=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="check identities (and --all for the full battery)")
    p_ver.add_argument("ids", nargs="*", help="identity keys, e.g. g1-four")
    p_ver.add_argument("--all", action="store_true")
    p_ver.add_argument("--trunc", type=int, help="default: $SIPQ_TRUNC, else 16")
    p_ver.set_defaults(handler=_cmd_verify)

    p_ser = sub.add_parser("series", help="expand one side of one identity")
    p_ser.add_argument("--spec", required=True)
    p_ser.add_argument(
        "--side",
        required=True,
        choices=["combinatorial", "series", "product", "product-alt"],
    )
    p_ser.add_argument("--trunc", type=int, help="default: $SIPQ_TRUNC, else 16")
    p_ser.set_defaults(handler=_cmd_series)

    p_tab = sub.add_parser("table", help="export a basis table as CSV")
    p_tab.add_argument("--basis", required=True, choices=_CLASS_CHOICES)
    p_tab.add_argument("--method", required=True, choices=sorted(dict(_TABLE_METHODS)))
    p_tab.add_argument("--n-max", type=int, required=True)
    p_tab.add_argument("--h-max", type=int, required=True)
    p_tab.set_defaults(handler=_cmd_table)

    p_chk = sub.add_parser("tables-check", help="three-way basis-table cross-check")
    p_chk.add_argument("--basis", required=True, choices=_CLASS_CHOICES)
    p_chk.add_argument("--n-max", type=int, default=_TABLE_BOUND)
    p_chk.add_argument("--h-max", type=int, default=_TABLE_BOUND)
    p_chk.set_defaults(handler=_cmd_tables_check)

    return parser


def _cmd_tables_check(args: argparse.Namespace) -> int:
    basis = PartitionClass(args.basis).basis
    reports = (cross_check_tables(b, args.n_max, args.h_max) for b in (basis,))
    params = {"basis": basis.value, "n_max": args.n_max, "h_max": args.h_max}
    return _run_reports("tables-check", params, reports)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trunc", 0) is None:
        try:
            args.trunc = _default_trunc()
        except ValueError:
            _diag(f"SIPQ_TRUNC must be a nonnegative integer, got {os.environ['SIPQ_TRUNC']!r}")
            return 2
    if getattr(args, "trunc", 0) < 0:
        _diag("trunc must be nonnegative")
        return 2
    if getattr(args, "weight", 0) < 0:
        _diag("weight must be nonnegative")
        return 2
    if getattr(args, "n_max", 0) < 0 or getattr(args, "h_max", 0) < 0:
        _diag("table bounds must be nonnegative")
        return 2
    return args.handler(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
