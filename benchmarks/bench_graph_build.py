"""Benchmark: cold vs warm task-graph construction through the SyncPlan IR.

A *cold* build runs the whole frontend -- directive passes, strategy
expansion, op passes, verification, lowering (which costs every op on its
node's hardware) -- and then instantiates the graph.  A *warm* build finds the
lowered recipe in the :class:`~repro.casync.lower.GraphCache` and only
instantiates.  The refactor's acceptance bar is warm >= 2x faster than
cold; multi-iteration experiments hit the warm path on every iteration
after the first.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_build.py             # full
    PYTHONPATH=src python benchmarks/bench_graph_build.py --smoke     # CI

Writes ``BENCH_graph_build.json`` (override with ``--output``) and exits
non-zero if any case misses the 2x bar (``--no-check`` to report only).
The committed ``BENCH_graph_build.json`` is a full run's output.
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
from repro.training import make_plans


def make_ctx(model, cluster, algorithm, plans):
    """A fresh per-"iteration" SyncContext, as the training loop makes one."""
    env = Environment()
    ready = {(node, grad.name): env.event()
             for node in range(cluster.num_nodes)
             for grad in model.gradients}
    return SyncContext(env=env, cluster=cluster, ready=ready,
                       algorithm=algorithm, plans=plans)


def bench_case(name, strategy, model, cluster, algorithm, plans, reps):
    cache = GraphCache()

    def build():
        return build_graph(strategy, make_ctx(model, cluster, algorithm,
                                              plans), model, cache=cache)

    cold, warm = [], []
    for _ in range(reps):
        cache.clear()
        start = time.perf_counter()
        graph = build()
        cold.append(time.perf_counter() - start)
    num_tasks = len(graph.tasks)
    build()                                   # prime
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
        "tasks": num_tasks,
        "cold_ms": round(cold_ms, 4),
        "warm_ms": round(warm_ms, 4),
        "speedup": round(cold_ms / warm_ms, 2) if warm_ms else float("inf"),
        "cache": {"hits": cache.hits, "misses": cache.misses},
    }


def cases(smoke: bool):
    if smoke:
        specs = [("vgg19-casync-ps-tbq-n4", "vgg19", CaSyncPS, "tbq",
                  "ps_colocated", 4)]
    else:
        specs = [
            ("vgg19-casync-ps-tbq-n8", "vgg19", CaSyncPS, "tbq",
             "ps_colocated", 8),
            ("vgg19-casync-ring-tbq-n8", "vgg19", CaSyncRing, "tbq",
             "ring", 8),
            ("bert-large-casync-ps-onebit-n8", "bert-large", CaSyncPS,
             "onebit", "ps_colocated", 8),
            ("resnet50-casync-ps-dgc-n16", "resnet50", CaSyncPS, "dgc",
             "ps_colocated", 16),
            ("vgg19-byteps-n8", "vgg19", None, None, None, 8),
        ]
    for name, model_name, strategy_cls, algo, preset, n in specs:
        model = get_model(model_name)
        cluster = ec2_v100_cluster(n)
        algorithm = default_algorithm(algo) if algo else None
        plans = (make_plans(model, cluster, algorithm, preset)
                 if preset else None)
        strategy = (strategy_cls() if strategy_cls
                    else get_strategy("byteps"))
        yield name, strategy, model, cluster, algorithm, plans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one small case, few reps (CI)")
    parser.add_argument("--reps", type=int, default=None,
                        help="builds per measurement (default 3 smoke, "
                             "7 full)")
    parser.add_argument("--output", default="BENCH_graph_build.json",
                        help="result JSON path")
    parser.add_argument("--no-check", action="store_true",
                        help="report without enforcing the 2x bar")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps else (3 if args.smoke else 7)

    results = []
    for name, strategy, model, cluster, algorithm, plans in cases(args.smoke):
        row = bench_case(name, strategy, model, cluster, algorithm, plans,
                         reps)
        results.append(row)
        print(f"{row['case']:38s} cold {row['cold_ms']:9.3f} ms   "
              f"warm {row['warm_ms']:8.3f} ms   {row['speedup']:6.1f}x   "
              f"({row['tasks']} tasks)")

    payload = {"benchmark": "graph_build", "reps": reps,
               "smoke": args.smoke, "results": results}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    if not args.no_check:
        slow = [r for r in results if r["speedup"] < 2.0]
        if slow:
            print("FAIL: warm build under the 2x bar for: "
                  + ", ".join(r["case"] for r in slow))
            return 1
        print("OK: warm-cache instantiation >= 2x faster than cold "
              "in every case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
