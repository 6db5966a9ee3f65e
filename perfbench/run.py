"""Benchmark harness for sipq: end-to-end and per-layer metrics, stdlib only.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload battery-t24 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh interpreter (``child.py``), one child at a
time, because a CLI user pays the import and cold caches on every call.  A
run starts children within about ``--seconds`` (at least ``MIN_CHILDREN``),
then times ``SETUP_PROBES`` import-only children, and reports medians.

Workloads (the names are fixed; design.json records why each was chosen):

* ``battery-t24`` — ``sipq verify --all --trunc 24``; skeleton enumeration
  dominates.  It keeps the CLI's fixed order, so the seed is ignored.
* ``catalog-t40`` — ``sipq verify <18 catalog keys> --trunc 40``; class-member
  enumeration dominates.  The seed shuffles the key order.
* ``sides-t64`` — series, product and alternate-product sides of every catalog
  identity at trunc 64, compared pairwise; the series kernel dominates.  The
  seed shuffles the key order.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``wall_s``, ``peak_rss_mb`` and ``setup_s``; with
``--trace 1`` it holds the per-layer metrics of ``tracing.METRICS``, from
extra traced children whose spans are written under ``.perfbench-out/``.
``attempted`` and ``failed`` count the checks of the correctness gate
(``gate.py``) over all children; their ratio is ``failed_share``, printed on
the line above the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from tracing import HARNESS_METRICS, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_CHILDREN = 3
SETUP_PROBES = 25
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    "battery-t24": 24,
    "catalog-t40": 40,
    "sides-t64": 64,
}


class ChildFailed(RuntimeError):
    """A child process crashed or printed no result."""


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def seeded_keys(seed: int, catalog_keys: list[str]) -> list[str]:
    keys = list(catalog_keys)
    random.Random(seed).shuffle(keys)
    return keys


def make_job(workload: str, seed: int, catalog_keys: list[str]) -> dict:
    """The child's input for one workload; only the key order depends on the seed."""
    trunc = WORKLOADS[workload]
    if workload == "battery-t24":
        return {"kind": "cli", "argv": ["verify", "--all", "--trunc", str(trunc)], "trunc": trunc}
    keys = seeded_keys(seed, catalog_keys)
    if workload == "catalog-t40":
        return {"kind": "cli", "argv": ["verify", *keys, "--trunc", str(trunc)], "trunc": trunc}
    return {"kind": "sides", "keys": keys, "trunc": trunc}


def run_child(job: dict, trace_path: Path | None = None) -> dict:
    """Run one child to completion and return its parsed result line."""
    job = dict(job, trace_path=str(trace_path) if trace_path else None)
    # A fixed hash seed makes string-keyed dict and set layouts repeat between
    # children.  Bytecode caches are allowed, as for an installed package:
    # the warm-up child writes them, so that setup_s does not depend on the
    # caller's PYTHONDONTWRITEBYTECODE.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(jobs: list[tuple[dict, Path | None]], seconds: float, min_rounds: int) -> list[list[dict]]:
    """Rounds of children, one child at a time, within about ``seconds``.

    A round runs each ``(job, trace_path)`` once.  After ``min_rounds``, no
    round starts that would, at the mean round time so far, end after
    ``seconds``.  Returns one result list per job.
    """
    results: list[list[dict]] = [[] for _ in jobs]
    start = time.perf_counter()
    rounds = 0
    while True:
        for out, (job, trace_path) in zip(results, jobs):
            out.append(run_child(job, trace_path))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return results


def gate_child(workload: str, out: dict, expected: dict) -> tuple[int, list[str]]:
    if workload == "sides-t64":
        return gate.gate_sides(out["sides"], expected[workload]["product_sha256"])
    return gate.gate_reports(out["exit_code"], out["reports"], expected[workload]["report_checks"])


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; print readable lines and return the result object."""
    expected = load_expected()
    job = make_job(workload, seed, expected["catalog_keys"])
    if workload == "battery-t24":
        print(f"# {workload} seed={seed} (ignored: the CLI's fixed report order is used)")
    else:
        print(f"# {workload} seed={seed} keys={','.join(seeded_keys(seed, expected['catalog_keys']))}")
    run_child({"kind": "probe"})  # warm-up: writes bytecode caches, not timed

    metrics: dict[str, dict] = {}
    if trace:
        # Untraced and traced children alternate, so that host-speed drift
        # hits both sides of the overhead difference alike.
        OUT.mkdir(exist_ok=True)
        untraced, traced = measure([(job, None), (job, OUT / f"spans-{workload}.json")], seconds, 1)
        children = untraced + traced
        # median_low picks a measured value, so counts stay whole numbers.
        for name, unit, _ in METRICS:
            if name not in HARNESS_METRICS:
                metrics[name] = {"value": statistics.median_low(c["layers"][name] for c in traced), "unit": unit}
        overheads = [t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)]
        metrics["process.cpu_s"] = {"value": statistics.median(c["cpu_s"] for c in untraced), "unit": "s"}
        metrics["host.calib_s"] = {"value": statistics.median(c["calib_s"] for c in untraced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
        walls = [c["wall_s"] for c in traced]
        print(f"traced wall_s {statistics.median(walls):.4f} s ({_spread(walls)})")
        shares = {
            n[: -len(".self_s")]: statistics.median(c["layers"][n] / c["wall_s"] for c in traced)
            for n in metrics
            if n.endswith(".self_s")
        }
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        print("self-time share of traced wall_s: " + ", ".join(f"{n} {v:.3f}" for n, v in ranked if v >= 0.005))
    else:
        (untraced,) = measure([(job, None)], seconds, MIN_CHILDREN)
        children = untraced
        walls = [c["wall_s"] for c in untraced]
        setups = [c["setup_s"] for c in untraced]
        setups += [run_child({"kind": "probe"})["setup_s"] for _ in range(SETUP_PROBES)]
        rss = [c["peak_rss_mb"] for c in untraced]
        calib = [c["calib_s"] for c in untraced]
        metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"wall_s {metrics['wall_s']['value']:.4f} s ({_spread(walls)})")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} MB ({_spread(rss)})")
        print(f"setup_s {metrics['setup_s']['value']:.4f} s ({_spread(setups)})")
        print(f"host.calib_s {statistics.median(calib):.4f} s (diagnostic only; {_spread(calib)})")

    attempted = failed = 0
    for child in children:
        n, failures = gate_child(workload, child, expected)
        attempted += n
        failed += len(failures)
        for line in failures:
            print(f"FAILED {line}")
    print(f"failed_share {failed / attempted:.4g} ({failed} of {attempted} checks failed, {len(children)} runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sipq" / "__init__.py").is_file():
        print(f"no sipq sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
