"""Benchmark: strict-admission overhead of the whole-plan analyzer.

``GraphCache(admission="strict")`` runs :func:`repro.analysis.plancheck.
check_plan` over every cold-built plan (and its lowered recipe) before
the recipe may serve warm iterations.  The acceptance bar is that this
proof adds **< 10%** to the cold build it gates.  The analyzer reads the
plan's :class:`~repro.casync.index.PlanIndex`, which the build
pipeline's verify stage already built (its PC1xx findings and the
checked columns as arrays), and derives its own groupings from the
plan's columns.

Each rep times the two sides of the admission decision back to back
(same process, interleaved, so machine drift cancels out of the ratio):

* **cold** -- the full cache-miss path strict mode gates:
  ``build_plan`` (passes + verify, which indexes the plan) ->
  ``lower_plan`` -> ``instantiate``;
* **check** -- ``check_plan(plan, recipe=...)``, exactly the call strict
  admission inserts between lowering and caching.

Each case also records its plan's op count and PlanCheck's finding
count.  Both are integers that do not depend on the host, so every run
must reproduce the committed ``BENCH_plancheck.json`` (a full run's
output, read before the new results are written) exactly; timings are
not compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_plancheck.py           # full
    PYTHONPATH=src python benchmarks/bench_plancheck.py --smoke   # CI

Writes ``BENCH_plancheck.json`` (override with ``--output``) and exits
non-zero if any case reaches the 10% bar or its ``ops`` or ``findings``
differ from the committed run (``--no-check`` to report only).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.analysis.plancheck import check_plan
from repro.casync.lower import instantiate, lower_plan
from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import default_algorithm
from repro.models import get_model
from repro.strategies import get_strategy

from bench_graph_build import committed_rows, count_mismatches, make_ctx

#: Strict admission must stay below this fraction of a cold build.
OVERHEAD_BAR_PCT = 10.0
#: The committed full run, whose counts every run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_plancheck.json"
COUNTS = ("ops", "findings")


def bench_case(name, strategy, model, cluster, algorithm, reps):
    cold, check = [], []
    plan = report = None
    for _ in range(reps):
        ctx = make_ctx(cluster, algorithm)
        pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster,
                           algorithm=algorithm)
        gc.collect()
        start = time.perf_counter()
        plan = build_plan(strategy, pctx, model)
        recipe = lower_plan(plan, pctx)
        instantiate(recipe, ctx)
        mid = time.perf_counter()
        report = check_plan(plan, pctx=pctx, recipe=recipe)
        check.append(time.perf_counter() - mid)
        cold.append(mid - start)
        assert report.ok(strict=True), report.render_text()
    cold_ms = statistics.median(cold) * 1e3
    check_ms = statistics.median(check) * 1e3
    return {
        "case": name,
        "strategy": strategy.name,
        "model": model.name,
        "num_nodes": cluster.num_nodes,
        "ops": len(plan.ops),
        "cold_build_ms": round(cold_ms, 4),
        "check_ms": round(check_ms, 4),
        "overhead_pct": round(check_ms / cold_ms * 100, 2),
        "findings": len(report.diagnostics),
    }


def cases(smoke: bool):
    if smoke:
        specs = [("vgg19-casync-ps-tbq-n8", "vgg19", "casync-ps", "tbq", 8)]
    else:
        specs = [
            ("vgg19-casync-ps-tbq-n8", "vgg19", "casync-ps", "tbq", 8),
            ("vgg19-casync-ring-tbq-n8", "vgg19", "casync-ring", "tbq", 8),
            ("bert-large-casync-ps-onebit-n8", "bert-large", "casync-ps",
             "onebit", 8),
            ("resnet50-casync-ps-dgc-n16", "resnet50", "casync-ps", "dgc",
             16),
            ("vgg19-byteps-n8", "vgg19", "byteps", None, 8),
        ]
    for name, model_name, strat, algo, n in specs:
        model = get_model(model_name)
        cluster = ec2_v100_cluster(n)
        algorithm = default_algorithm(algo) if algo else None
        yield name, get_strategy(strat), model, cluster, algorithm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one representative case, few reps (CI)")
    parser.add_argument("--reps", type=int, default=None,
                        help="builds per measurement (default 3 smoke, "
                             "5 full)")
    parser.add_argument("--output", default="BENCH_plancheck.json",
                        help="result JSON path")
    parser.add_argument("--no-check", action="store_true",
                        help="report without enforcing the 10% bar")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps else (3 if args.smoke else 5)

    committed = committed_rows(COMMITTED)
    results = []
    for name, strategy, model, cluster, algorithm in cases(args.smoke):
        row = bench_case(name, strategy, model, cluster, algorithm, reps)
        results.append(row)
        print(f"{row['case']:34s} cold {row['cold_build_ms']:9.3f} ms   "
              f"check {row['check_ms']:8.3f} ms   "
              f"overhead {row['overhead_pct']:5.2f}%   ({row['ops']} ops)")

    payload = {"benchmark": "plancheck_admission", "reps": reps,
               "smoke": args.smoke, "bar_pct": OVERHEAD_BAR_PCT,
               "results": results}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    if not args.no_check:
        over = [r for r in results if r["overhead_pct"] >= OVERHEAD_BAR_PCT]
        failures = []
        if over:
            failures.append(
                "strict-admission overhead at or over "
                f"{OVERHEAD_BAR_PCT:.0f}% of a cold build for: "
                + ", ".join(f"{r['case']} ({r['overhead_pct']:.1f}%)"
                            for r in over))
        failures += count_mismatches(results, committed, COUNTS)
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print(f"OK: strict admission adds < {OVERHEAD_BAR_PCT:.0f}% to a "
              "cold build in every case; ops and findings match the "
              "committed run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
