"""CLI: regenerate paper tables and figures.

Usage::

    python -m repro.experiments               # everything (minutes)
    python -m repro.experiments table1 fig11  # selected artifacts
    python -m repro.experiments --list
    python -m repro.experiments --quick       # smaller clusters, faster
    python -m repro.experiments --jobs 8      # parallel across processes
    python -m repro.experiments fig9 --trace trace.json --metrics metrics.csv
    python -m repro.experiments fig11 --dump-sync-plan plans/

Rendered outputs print to stdout and are saved under ``results/``.

Every invocation routes through :mod:`repro.experiments.runner`: each
artifact's jobs manifest is executed (in-process by default, across
``--jobs N`` worker processes otherwise) with results memoized in a
content-addressed cache (``--cache-dir``, default ``<output-dir>/.cache``;
``--no-cache`` disables).  The cache is the only record of finished
work: to continue an interrupted regeneration, rerun the same command,
and only the jobs whose payloads are missing execute.  Parallel, cached,
and serial runs are bit-identical -- see
``tests/test_runner_conformance.py``.

``--trace`` attaches a telemetry collector and writes a
Chrome-tracing/Perfetto JSON timeline (with ``--jobs N`` the simulations
run in worker processes, so the trace covers the runner's own per-job
spans rather than simulator internals); ``--metrics`` dumps the metrics
registry (``.csv`` or ``.json`` by extension); ``--dump-sync-plan``
writes every distinct SyncPlan IR built during the run (in-process runs
only, so it conflicts with ``--jobs``).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path

from .runner import ExperimentRunner, ResultCache, artifact_plans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("artifacts", nargs="*",
                        help="artifact names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available artifacts")
    parser.add_argument("--quick", action="store_true",
                        help="smaller clusters for a fast pass")
    parser.add_argument("--output-dir", default="results",
                        help="directory for rendered text outputs")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes (0 = in-process serial)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed result cache "
                             "(default: <output-dir>/.cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every job; do not read or "
                             "write the cache")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job timeout in seconds")
    parser.add_argument("--trace", metavar="FILE",
                        help="record all simulations and write a "
                             "Chrome-tracing JSON timeline to FILE")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write collected metrics to FILE "
                             "(.csv or .json)")
    parser.add_argument("--dump-sync-plan", metavar="DIR",
                        help="dump every SyncPlan IR built during the run "
                             "as JSON + text into DIR (in-process only)")
    args = parser.parse_args(argv)

    plans = artifact_plans(quick=args.quick)
    if args.list:
        print("\n".join(sorted(plans)))
        return 0

    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        parser.error(f"--timeout must be finite and > 0, got {args.timeout}")
    if args.dump_sync_plan and args.jobs:
        parser.error("--dump-sync-plan requires an in-process run; "
                     "drop --jobs")

    selected = args.artifacts or sorted(plans)
    unknown = [a for a in selected if a not in plans]
    if unknown:
        parser.error(f"unknown artifacts: {unknown}; "
                     f"available: {sorted(plans)}")

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cache = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache_dir) if args.cache_dir
                            else out_dir / ".cache")

    collector = None
    if args.trace or args.metrics:
        from ..telemetry import TelemetryCollector, attach, detach
        collector = TelemetryCollector()
        attach(collector)
    if args.dump_sync_plan:
        from ..casync.lower import sync_plan_dump
        dump_ctx = sync_plan_dump(args.dump_sync_plan)
    else:
        dump_ctx = contextlib.nullcontext()

    def progress(event):
        print(f"  [{event['done']}/{event['total']}] {event['job_id']} "
              f"({event['status']}, {event['duration_s']:.1f}s)",
              file=sys.stderr)

    runner = ExperimentRunner(
        max_workers=args.jobs, cache=cache, timeout_s=args.timeout,
        telemetry=collector, progress=progress)

    specs = []
    for name in selected:
        specs.extend(plans[name].specs())

    start = time.time()
    exit_code = 0
    try:
        with dump_ctx:
            report = runner.run(specs)
            for name in selected:
                if any(f.job_id.startswith(f"{name}/")
                       for f in report.failures):
                    continue
                text = plans[name].render(plans[name].assemble(
                    report.payloads))
                (out_dir / f"{name}.txt").write_text(text + "\n")
                print(text)
                print(f"[{name} -> {out_dir / (name + '.txt')}]\n")
    except KeyboardInterrupt:
        print("\n[interrupted -- rerun the same command to continue]",
              file=sys.stderr)
        return 130
    finally:
        if collector is not None:
            from ..telemetry import detach
            detach(collector)
    elapsed = time.time() - start
    print(f"[{report.executed} executed, {report.cache_hits} cached, "
          f"{len(report.failures)} failed in {elapsed:.1f}s]")
    for failure in report.failures:
        print(f"  FAILED {failure.job_id}: [{failure.kind}] "
              f"{failure.error_type}: {failure.message.splitlines()[0]}",
              file=sys.stderr)
        exit_code = 1

    if args.dump_sync_plan:
        dumped = sorted(Path(args.dump_sync_plan).glob("*.json"))
        print(f"[{len(dumped)} sync plan(s) -> {args.dump_sync_plan}]")
    if collector is not None:
        if args.trace:
            from ..telemetry import write_chrome_trace
            write_chrome_trace(collector, args.trace)
            print(f"[trace: {len(collector.spans)} spans -> {args.trace}]")
        if args.metrics:
            from ..telemetry import to_metrics_csv, to_metrics_json
            path = Path(args.metrics)
            if path.suffix.lower() == ".json":
                path.write_text(to_metrics_json(collector))
            else:
                path.write_text(to_metrics_csv(collector))
            print(f"[metrics -> {path}]")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
