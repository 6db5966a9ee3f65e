"""One measured run of one sipq workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 child.py '<job json>'`` with ``src`` on
``PYTHONPATH``.  The job is one of three kinds: ``probe`` (time the import
only), ``cli`` (run ``sipq.cli.main`` on the given argv, stdout captured) or
``sides`` (expand and compare the sides of the given identity keys); it also
carries the truncation and, for a traced run, where to write the spans.

The child times ``import sipq``, a fixed calibration loop and then the
workload, and prints one JSON line: the timings, its own peak resident
memory and the raw outputs the harness's correctness gate needs.  It starts
no threads or processes.

Peak memory is ``VmHWM`` from ``/proc/self/status``: the high-water mark of
this process's own address space.  ``ru_maxrss`` (``RUSAGE_SELF`` here, or
``os.wait4`` in the parent) would not do: Linux carries the pre-``exec``
high-water mark of the forking parent into it, so a parent holding 200 MB
makes every child report at least 200 MB.

Only ``sys`` and ``time`` are imported before ``import sipq`` is timed, so the
measured set-up includes the standard-library modules sipq pulls in.
"""

import sys
import time

CALIBRATION_STEPS = 2_400_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    start = time.perf_counter()
    import sipq  # noqa: F401  (timed: this is the CLI's set-up cost)

    setup_s = time.perf_counter() - start

    import contextlib
    import hashlib
    import io
    import json

    from sipq import cli, identities

    job = json.loads(sys.argv[1])
    result: dict = {"setup_s": setup_s}
    if job["kind"] == "probe":
        print(json.dumps(result))
        return

    result["calib_s"] = calibrate()
    tracer = None
    if job["trace_path"]:
        from tracing import Tracer, summarize

        tracer = Tracer(job["trunc"])
        tracer.install()

    trunc = job["trunc"]
    check_s = 0.0  # time spent on the benchmark's own digests, not on sipq
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    if job["kind"] == "sides":
        sides_out = []
        for key in job["keys"]:
            spec = identities.spec_by_key(key)
            sides = []
            if spec.series:
                sides.append(("series", identities.series_side(spec, trunc)))
            product = identities.product_side(spec, trunc)
            sides.append(("product", product))
            if spec.product_alt is not None:
                sides.append(("product-alt", identities.product_side(spec, trunc, alt=True)))
            pairs = [
                [ln, rn, ls.equal_to(rs).equal]
                for i, (ln, ls) in enumerate(sides)
                for rn, rs in sides[i + 1 :]
            ]
            digest_start = time.perf_counter()
            canonical = json.dumps(sorted(product.terms.items()), separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode()).hexdigest()
            check_s += time.perf_counter() - digest_start
            sides_out.append({"key": key, "pairs": pairs, "product_sha256": digest})
        wall_s = time.perf_counter() - wall_start - check_s
        result["sides"] = sides_out
    else:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            exit_code = cli.main(job["argv"])
        wall_s = time.perf_counter() - wall_start
        reports = json.loads(captured.getvalue())["results"]
        result["exit_code"] = exit_code
        result["reports"] = [
            {"name": r["name"], "passed": r["passed"], "checks": r["checks"]} for r in reports
        ]
    result["cpu_s"] = time.process_time() - cpu_start
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = peak_rss_kib() / 1024
    if tracer is not None:
        result["layers"] = summarize(tracer.spans, tracer.counts)
        tracer.write(job["trace_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
