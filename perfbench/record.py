"""Record the values the correctness gate compares against into expected.json.

Run once, from the root of the repository, at the commit whose outputs are
taken as correct::

    python3 perfbench/record.py

It stores the catalog keys in catalog order, every report name of the
``battery-t24`` and ``catalog-t40`` runs with its number of checks, and the
SHA-256 of each identity's sorted product-side terms at trunc 64.  The
recorded runs must pass; the script refuses to record a failing one.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, SRC, make_job, run_child


def catalog_keys() -> list[str]:
    code = "import json, sipq; print(json.dumps([s.key for s in sipq.registry()]))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    keys = catalog_keys()
    expected: dict = {"catalog_keys": keys}
    for workload in ("battery-t24", "catalog-t40"):
        out = run_child(make_job(workload, 0, keys))
        if out["exit_code"] != 0 or not all(r["passed"] for r in out["reports"]):
            print(f"{workload}: refusing to record a failing run", file=sys.stderr)
            return 1
        expected[workload] = {"report_checks": {r["name"]: r["checks"] for r in out["reports"]}}
    out = run_child(make_job("sides-t64", 0, keys))
    if not all(equal for entry in out["sides"] for _, _, equal in entry["pairs"]):
        print("sides-t64: refusing to record unequal sides", file=sys.stderr)
        return 1
    expected["sides-t64"] = {"product_sha256": {e["key"]: e["product_sha256"] for e in out["sides"]}}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
