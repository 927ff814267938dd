"""Benchmark: deterministic work counts of one simulator op.

Wall time on a shared host cannot resolve a change of a few percent; the
counts below do not drift.  For one op of each simulator workload of
``benchmarks/e2e`` (the same ``run_system`` call), in a fresh
interpreter, it records:

* ``frames``: Python function frames entered in the ``repro`` package
  (``sys.setprofile`` ``call`` events, generator resumes included),
  leaving out comprehensions, generator expressions, lambdas and module
  bodies (code names starting with ``<``);
* ``sim_events``: ``Environment.step`` calls;
* ``tasks`` and ``dep_edges``: the armed task graph's tasks and their
  dependency entries;
* ``frames_per_task``.

A warm op runs after one untimed op of the same call; the cold op empties
the GraphCache after it, so its plan is built and lowered again.

Usage::

    PYTHONPATH=src python benchmarks/bench_work.py            # record
    PYTHONPATH=src python benchmarks/bench_work.py --smoke    # CI check

Without ``--smoke`` the counts are written to ``BENCH_work.json``
(override with ``--output``).  ``--smoke`` writes nothing and exits
non-zero if any count differs from the committed ``BENCH_work.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The committed counts every run must reproduce.
COMMITTED = ROOT / "BENCH_work.json"
#: Workload name -> ``(system, model, nodes, algorithm, cold)``, as in
#: ``benchmarks/e2e/run.py``.
WORKLOADS = {
    "ps-bert-large-n4-cold": ("hipress-ps", "bert-large", 4, "onebit", True),
    "ps-bert-large-n4-warm": ("hipress-ps", "bert-large", 4, "onebit", False),
    "ring-vgg19-n16-warm": ("hipress-ring", "vgg19", 16, "dgc", False),
}
#: The values every run must reproduce exactly.
EXACT = ("frames", "sim_events", "tasks", "dep_edges", "iteration_time")


def count_op(run) -> dict:
    """Run ``run()`` once under a profiler that counts its work."""
    import numpy as np

    import repro
    from repro.casync.tasks import TaskGraph
    from repro.sim import Environment

    package = os.path.dirname(repro.__file__) + os.sep
    step, arm = Environment.step.__code__, TaskGraph.arm.__code__
    counts = {"frames": 0, "sim_events": 0}
    graphs = []

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code is step:
            counts["sim_events"] += 1
        elif code is arm:
            graphs.append(frame.f_locals["self"])
        if (code.co_filename.startswith(package)
                and not code.co_name.startswith("<")):
            counts["frames"] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    tasks = edges = 0
    for graph in graphs:
        indegree = np.diff(np.asarray(graph.csr.dep_ptr))
        tasks += graph.num_tasks
        edges += int(indegree[np.asarray(graph.recipe.rows)].sum())
    counts.update(tasks=tasks, dep_edges=edges,
                  frames_per_task=round(counts["frames"] / tasks, 2),
                  iteration_time=repr(result.iteration_time))
    return counts


def child(name: str) -> dict:
    """One workload's op in this (fresh) interpreter."""
    from repro.api import run_system
    from repro.casync.lower import default_graph_cache
    from repro.cluster import ec2_v100_cluster

    system, model, nodes, algorithm, cold = WORKLOADS[name]
    cluster = ec2_v100_cluster(nodes)

    def run():
        return run_system(system, model, cluster, algorithm=algorithm)

    run()  # imports, lazy tables and, for a warm op, the GraphCache
    if cold:
        default_graph_cache().clear()
    return {"workload": name, **count_op(run)}


def run_fresh(name: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--child", name],
                         check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="check the counts against the committed run "
                             "and write nothing (CI)")
    parser.add_argument("--output", default=str(COMMITTED),
                        help="result JSON path (without --smoke)")
    parser.add_argument("--child", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0

    results = []
    for name in WORKLOADS:
        row = run_fresh(name)
        results.append(row)
        print(f"{name:24s} {row['frames']:9,d} frames  "
              f"{row['sim_events']:7,d} events  {row['tasks']:7,d} tasks  "
              f"{row['dep_edges']:7,d} edges  "
              f"{row['frames_per_task']:5.2f} frames/task")

    if not args.smoke:
        payload = {"benchmark": "work",
                   "host": {"python": platform.python_version()},
                   "results": results}
        Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"[results -> {args.output}]")
        return 0

    committed = {row["workload"]: row
                 for row in json.loads(COMMITTED.read_text())["results"]}
    failures = [f"{row['workload']}: {key} {row[key]} != committed "
                f"{committed[row['workload']][key]}"
                for row in results for key in EXACT
                if row[key] != committed[row["workload"]][key]]
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("OK: frames, sim_events, tasks, dep_edges and iteration_time "
          "match the committed run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
