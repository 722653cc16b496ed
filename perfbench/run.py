"""Repository benchmark: end-to-end and per-layer metrics of the monitor.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small-bins --seed 1 --seconds 20 \\
        --trace 0

``--workload`` is one of ``small-bins``, ``dense-bins``, ``sharded-stream``
and ``serve-paced`` (see ``perfbench/README.md``).  The seed drives every
generated input.  A run sets the workload up :data:`SETUP_REPEATS` times
(reporting the median set-up time), then ingests the workload's trace
through fresh sessions, pass after pass, for ``--seconds`` seconds.  With
``--trace 0`` every pass runs without tracing and the end-to-end metrics
are reported; with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics (plus the tracing overhead) are reported, and the
spans are written to ``.perfbench-out/``.

The outputs are checked outside the timed region; any failed check makes
the command exit with status 1.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Seed used when none is given.  Seed 7919 is held out: it confirms a
#: claimed gain on inputs that were not used while the change was made.
DEFAULT_SEED = 1
#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3


def _fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail_early(f"program sources not found under {SRC}; run from a "
                    "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import host
    import report
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail_early(f"unknown workload {args.workload!r}; choose from "
                    f"{sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail_early("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    meta = host.start_metadata()
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    failures: List[str] = []
    try:
        ctx, setup_times, fingerprints = _set_up(workload, args.seed,
                                                 workdir)
        passes, tracer = _measure(workload, ctx, args.seconds,
                                  traced=bool(args.trace), failures=failures)
        checks = []
        if passes:
            checks = report.common_checks(ctx, passes, fingerprints) + \
                workload.checks(ctx, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    host.finish_metadata(meta)

    metrics, details = {}, {}
    if passes:
        if args.trace:
            metrics, details = report.layer_metrics(ctx, passes, tracer)
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
        else:
            metrics, details = report.end_to_end_metrics(
                ctx, passes, setup_times,
                report.peak_rss_mb(passes))
        checks += report.range_checks(metrics, details)
    failed_checks = [check for check in checks if not check.ok]
    attempted = sum(len(p.latencies) + len(p.ops) for p in passes) + \
        len(checks) + len(failures)
    failed = sum(1 for p in passes for op in p.ops if not op[2]) + \
        len(failed_checks) + len(failures)
    attempted = max(1, attempted)
    details["error_frac"] = failed / attempted
    correct = bool(passes) and failed == 0

    OUT.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": meta,
        "bins": sum(len(p.latencies) for p in passes),
        "details": details, "failures": failures,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in checks],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(document, indent=1))
    for check in failed_checks:
        print(f"CHECK FAILED: {check.name}: {check.detail}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("host: " + json.dumps(meta))
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": document["metrics"]}))
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker process, if the worker
    pool's segments started one, and wait for it to exit."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _set_up(workload, seed: int, workdir: Path):
    """Set the workload up several times; keep the last context.

    Returns the context, the set-up times as (wall, reference-host)
    seconds and one fingerprint per set-up (packets, bins, calibrated
    capacity), which must all agree.
    """
    from host import ReferenceClock

    workdir.mkdir(parents=True, exist_ok=True)
    times, fingerprints = [], []
    for _ in range(SETUP_REPEATS):
        ctx = None  # release the previous set-up before building the next
        gc.collect()
        clock = ReferenceClock()
        ctx = workload.setup(seed, workdir, clock)
        times.append((clock.wall, clock.reference))
        fingerprints.append((ctx.packets, ctx.n_bins, ctx.capacity))
        workload.teardown(ctx)
    return ctx, times, fingerprints


def _measure(workload, ctx, seconds: float, traced: bool,
             failures: List[str]):
    """Run passes until ``seconds`` have elapsed (always at least one;
    with tracing, untraced and traced passes alternate, at least one of
    each)."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    passes = []
    started = perf_counter()
    try:
        while True:
            use_tracer = tracer if len(passes) % 2 == 1 else None
            # Every pass starts with the same collector state: what earlier
            # passes and the harness keep alive is frozen out of the
            # cyclic collector's scans (reference counting still frees it).
            gc.collect()
            gc.freeze()
            try:
                passes.append(workload.run_pass(ctx, use_tracer))
            except Exception:  # reported: fails the run
                failures.append(traceback.format_exc())
                break
            enough = perf_counter() - started >= seconds
            if enough and (not traced or len(passes) >= 2):
                break
    finally:
        gc.unfreeze()
    return passes, tracer


if __name__ == "__main__":
    sys.exit(main())
