"""Benchmark: cold vs warm task-graph construction through the SyncPlan IR.

A *cold* build runs the whole frontend -- directive passes (the §3.3
planner included), strategy expansion, op passes, verification, lowering
(which costs every op on its node's hardware) -- and then instantiates
the graph.  A *warm* build finds the lowered recipe in the
:class:`~repro.casync.lower.GraphCache` and only instantiates.  The
refactor's acceptance bar is warm >= 2x faster than cold; multi-iteration
experiments hit the warm path on every iteration after the first.

Each case also records its plan's op count after the passes
(``plan_ops``, the recipe's CSR rows), its task count, its join count
(the plan's barrier rows, which lowering makes CSR joins instead of
tasks) and the cache's hits and misses after one cold and one warm
build.  None of these depends on the host, so every run must reproduce the committed ``BENCH_graph_build.json`` (a full run's
output, read before the new results are written) exactly; timings are
not compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_build.py             # full
    PYTHONPATH=src python benchmarks/bench_graph_build.py --smoke     # CI

Writes ``BENCH_graph_build.json`` (override with ``--output``) and exits
non-zero if any case misses the 2x bar or its counts differ from the
committed run (``--no-check`` to report only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.casync.lower import GraphCache, build_graph
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import default_algorithm
from repro.models import get_model
from repro.sim import Environment
from repro.strategies import CaSyncPS, CaSyncRing, get_strategy
from repro.strategies.base import SyncContext

#: The committed full run, whose counts every run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_graph_build.json"
COUNTS = ("plan_ops", "tasks", "joins", "cache")


def make_ctx(cluster, algorithm):
    """A fresh per-"iteration" SyncContext, as the training loop makes one."""
    return SyncContext(env=Environment(), cluster=cluster,
                       algorithm=algorithm)


def bench_case(name, strategy, model, cluster, algorithm, reps):
    cache = GraphCache()

    def build():
        return build_graph(strategy, make_ctx(cluster, algorithm),
                           model, cache=cache)

    cold, warm = [], []
    for _ in range(reps):
        cache.clear()
        start = time.perf_counter()
        graph = build()
        cold.append(time.perf_counter() - start)
    plan_ops = len(graph.csr)
    num_tasks = graph.num_tasks
    num_joins = graph.csr.slot.count(-1)
    build()                                   # prime
    # One cold miss, then one warm hit: independent of ``reps``.
    counters = {"hits": cache.hits, "misses": cache.misses}
    for _ in range(reps):
        start = time.perf_counter()
        build()
        warm.append(time.perf_counter() - start)
    cold_ms = statistics.median(cold) * 1e3
    warm_ms = statistics.median(warm) * 1e3
    return {
        "case": name,
        "strategy": strategy.name,
        "model": model.name,
        "num_nodes": cluster.num_nodes,
        "plan_ops": plan_ops,
        "tasks": num_tasks,
        "joins": num_joins,
        "cold_ms": round(cold_ms, 4),
        "warm_ms": round(warm_ms, 4),
        "speedup": round(cold_ms / warm_ms, 2) if warm_ms else float("inf"),
        "cache": counters,
    }


def cases(smoke: bool):
    specs = [
        ("vgg19-casync-ps-tbq-n8", "vgg19", CaSyncPS, "tbq", 8),
        ("vgg19-casync-ring-tbq-n8", "vgg19", CaSyncRing, "tbq", 8),
        ("bert-large-casync-ps-onebit-n8", "bert-large", CaSyncPS,
         "onebit", 8),
        ("resnet50-casync-ps-dgc-n16", "resnet50", CaSyncPS, "dgc", 16),
        ("vgg19-byteps-n8", "vgg19", None, None, 8),
    ]
    if smoke:
        specs = [spec for spec in specs
                 if spec[0] == "vgg19-casync-ring-tbq-n8"]
    for name, model_name, strategy_cls, algo, n in specs:
        model = get_model(model_name)
        cluster = ec2_v100_cluster(n)
        algorithm = default_algorithm(algo) if algo else None
        strategy = (strategy_cls() if strategy_cls
                    else get_strategy("byteps"))
        yield name, strategy, model, cluster, algorithm


def committed_rows(path: Path) -> dict:
    """``{case: row}`` from a committed full run (read before writing)."""
    return {row["case"]: row
            for row in json.loads(path.read_text())["results"]}


def count_mismatches(results, committed, keys) -> list:
    """One message per result whose ``keys`` differ from the committed run."""
    failures = []
    for r in results:
        row = committed.get(r["case"])
        if row is None:
            failures.append(f"{r['case']}: not in the committed run")
        else:
            failures += [f"{r['case']}: {key} {r[key]} != committed "
                         f"{row[key]}" for key in keys if r[key] != row[key]]
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one committed case, few reps (CI)")
    parser.add_argument("--reps", type=int, default=None,
                        help="builds per measurement (default 3 smoke, "
                             "7 full)")
    parser.add_argument("--output", default="BENCH_graph_build.json",
                        help="result JSON path")
    parser.add_argument("--no-check", action="store_true",
                        help="report without enforcing the 2x bar")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps else (3 if args.smoke else 7)

    committed = committed_rows(COMMITTED)
    results = []
    for name, strategy, model, cluster, algorithm in cases(args.smoke):
        row = bench_case(name, strategy, model, cluster, algorithm, reps)
        results.append(row)
        print(f"{row['case']:38s} cold {row['cold_ms']:9.3f} ms   "
              f"warm {row['warm_ms']:8.3f} ms   {row['speedup']:6.1f}x   "
              f"({row['plan_ops']} plan ops, {row['tasks']} tasks, "
              f"{row['joins']} joins)")

    payload = {"benchmark": "graph_build", "reps": reps,
               "smoke": args.smoke, "results": results}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    if not args.no_check:
        slow = [r for r in results if r["speedup"] < 2.0]
        failures = []
        if slow:
            failures.append("warm build under the 2x bar for: "
                            + ", ".join(r["case"] for r in slow))
        failures += count_mismatches(results, committed, COUNTS)
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print("OK: warm-cache instantiation >= 2x faster than cold "
              "in every case; plan ops, tasks, joins and cache counts "
              "match the committed run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
