"""Benchmark: one compressed CaSync-PS BERT-large iteration at scale.

Runs ``run_system("hipress-ps", "bert-large", ec2_v100_cluster(n),
algorithm="onebit")`` at 8, 16 and 32 nodes.  Each node count gets a
fresh interpreter, which makes one *cold* call (the GraphCache is empty,
so the plan is built, checked and lowered) and then one *warm* call (the
lowered recipe is replayed).  For each call it records:

* host wall seconds;
* garbage-collector pause seconds, full (gen2) passes and young passes,
  counted through ``gc.callbacks``;
* the interpreter's peak RSS so far;

and, from a third, untimed call that counts them, the round's tasks and
simulated events.  Cold and warm ``iteration_time`` must be bit-identical,
and equal to the committed run's.
Every timed call starts from empty collector generations
(``gc.collect()`` first), so the pass counts belong to the call alone.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py             # full
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke     # CI

Writes ``BENCH_scale.json`` (override with ``--output``) and exits
non-zero if a cold call runs any gen2 pass, cold and warm disagree, or a
node count's ``tasks``, ``sim_events`` or ``iteration_time`` differ from
the committed ``BENCH_scale.json`` (``--no-check`` to report only).  All
three must match exactly: the counts are integers, and every simulated
float sum is a left fold, which rounds alike on every Python version
(``iteration_time`` is compared as its ``repr``).  ``--smoke`` runs 8
nodes only.  The committed ``BENCH_scale.json`` is a full run's
output; it is read before the new results are written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

FULL_NODES = (8, 16, 32)
SMOKE_NODES = (8,)
#: The committed full run, whose counts every run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
#: The values every run must reproduce exactly.
EXACT = ("tasks", "sim_events", "iteration_time")
CALL = ('run_system("hipress-ps", "bert-large", ec2_v100_cluster(n), '
        'algorithm="onebit")')


def peak_rss_mb() -> float:
    """Peak resident set size of this interpreter so far (Linux: KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                 1)


def timed_call(run):
    """Run one call; returns its result and what it cost."""
    clock = {"pause_s": 0.0, "gen2": 0, "young": 0, "started": 0.0}

    def on_gc(phase, info):
        if phase == "start":
            clock["started"] = time.perf_counter()
            return
        clock["pause_s"] += time.perf_counter() - clock["started"]
        clock["gen2" if info["generation"] == 2 else "young"] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_gc)
    return result, {"wall_s": round(wall, 3),
                    "gc_pause_s": round(clock["pause_s"], 3),
                    "gc_gen2": clock["gen2"], "gc_young": clock["young"],
                    "peak_rss_mb": peak_rss_mb()}


def counted_call(run):
    """Run one call counting its tasks and simulated events."""
    from repro.casync.tasks import TaskGraph
    from repro.sim import Environment

    counts = {"tasks": 0, "sim_events": 0}
    step, arm = Environment.step, TaskGraph.arm

    def counting_step(self):
        counts["sim_events"] += 1
        step(self)

    def counting_arm(self, engines):
        counts["tasks"] += self.num_tasks
        return arm(self, engines)

    Environment.step, TaskGraph.arm = counting_step, counting_arm
    try:
        run()
    finally:
        Environment.step, TaskGraph.arm = step, arm
    return counts


def child(nodes: int) -> dict:
    """One node count in this (fresh) interpreter."""
    from repro.api import run_system
    from repro.casync.lower import default_graph_cache
    from repro.cluster import ec2_v100_cluster

    cluster = ec2_v100_cluster(nodes)

    def run():
        return run_system("hipress-ps", "bert-large", cluster,
                          algorithm="onebit")

    default_graph_cache().clear()
    cold_result, cold = timed_call(run)
    warm_result, warm = timed_call(run)
    counts = counted_call(run)
    return {"nodes": nodes, "cold": cold, "warm": warm, **counts,
            "iteration_time": repr(cold_result.iteration_time),
            "bit_identical": (repr(cold_result.iteration_time)
                              == repr(warm_result.iteration_time))}


def committed_counts() -> dict:
    """``{nodes: {key: value}}`` of the :data:`EXACT` values from the
    committed full run."""
    rows = json.loads(COMMITTED.read_text())["results"]
    return {row["nodes"]: {key: row[key] for key in EXACT} for row in rows}


def run_fresh(nodes: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--child", str(nodes)],
                         check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="8 nodes only (CI)")
    parser.add_argument("--output", default="BENCH_scale.json",
                        help="result JSON path")
    parser.add_argument("--no-check", action="store_true",
                        help="report without enforcing the gates")
    parser.add_argument("--child", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0

    committed = committed_counts()
    results = []
    for nodes in SMOKE_NODES if args.smoke else FULL_NODES:
        row = run_fresh(nodes)
        results.append(row)
        cold, warm = row["cold"], row["warm"]
        print(f"n={nodes:3d}  cold {cold['wall_s']:7.2f} s "
              f"(GC {cold['gc_pause_s']:5.2f} s, gen2 {cold['gc_gen2']:2d})  "
              f"warm {warm['wall_s']:6.2f} s "
              f"(GC {warm['gc_pause_s']:5.2f} s, gen2 {warm['gc_gen2']:2d})  "
              f"peak RSS {warm['peak_rss_mb']:7.1f} MB  "
              f"{row['tasks']} tasks  {row['sim_events']} events")

    payload = {"benchmark": "scale", "smoke": args.smoke, "call": CALL,
               "host": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "cpus": os.cpu_count()},
               "results": results}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    if not args.no_check:
        failures = [f"n={r['nodes']}: cold ran {r['cold']['gc_gen2']} gen2 "
                    f"passes" for r in results if r["cold"]["gc_gen2"]]
        failures += [f"n={r['nodes']}: cold and warm iteration_time differ"
                     for r in results if not r["bit_identical"]]
        failures += [f"n={r['nodes']}: {key} {r[key]} != committed "
                     f"{committed[r['nodes']][key]}"
                     for r in results if r["nodes"] in committed
                     for key in EXACT if r[key] != committed[r["nodes"]][key]]
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print("OK: no cold round ran a gen2 pass; cold and warm "
              "iteration_time are bit-identical; tasks, sim_events and "
              "iteration_time match the committed run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
