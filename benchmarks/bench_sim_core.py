"""Benchmark: the vectorized bulk-transfer path vs per-message processes.

Two measurements:

* **bulk** (gated) -- simulated-message throughput of
  :meth:`Fabric.bulk_transfer` with a delivery ``handler`` (one NumPy
  reservation pass and one pooled carrier per message, the interface the
  CaSync coordinator flushes through) against one generator process per
  message, each waiting on the event its :meth:`Fabric.issue` delivery
  fires, on the same simulator and a fan-out + incast workload.  Both
  paths must agree exactly on every per-message delivery time, the final
  simulated clock, bytes and messages -- a fast wrong answer is a
  failure, not a speedup.  Acceptance bar: >= 3x.  Measured on a 2-vCPU
  Xeon under CPython 3.11 (each run the min of 3 repetitions): 3.9-4.5x
  over four runs at 256 nodes / 8,192 messages (``--smoke``).  The bar
  sits below that floor so host noise cannot fail a correct build, while
  losing the vector pass (about 1x) still does.
* **scale sweep** (gated) -- the fig7-style weak-scaling sweep on the
  256- and 1024-node EC2 presets, executed through the experiment
  runner, asserted to finish within a wall-clock budget.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_core.py           # full
    PYTHONPATH=src python benchmarks/bench_sim_core.py --smoke   # CI

Writes ``BENCH_sim_core.json`` (override with ``--output``) and exits
non-zero if a gated bar is missed (``--no-check`` to report only);
``--no-sweep`` skips the scale sweep for quick local iteration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.runner import ExperimentRunner
from repro.experiments.throughput import sweep_jobs
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment

#: The gated message-throughput bar: bulk path vs per-message processes.
BULK_BAR = 3.0

SPEC = NetworkSpec(bandwidth_gbps=100.0, latency_us=8.0, efficiency=0.65)


def _bulk_steps(nodes: int, steps: int, msgs_per_step: int, seed: int):
    """A reproducible mixed fan-out/incast schedule of bulk steps.

    Odd steps fan out from a handful of sources (a server pushing
    updates); even steps incast toward a handful of sinks (workers
    pushing gradients).  Sizes vary so per-NIC serialization queues are
    irregular, like a real iteration.
    """
    rng = random.Random(seed)
    hubs = max(2, nodes // 64)
    schedule = []
    for step in range(steps):
        transfers = []
        for i in range(msgs_per_step):
            hub = rng.randrange(hubs)
            other = rng.randrange(hubs, nodes)
            nbytes = float(rng.randrange(4 * 1024, 256 * 1024))
            if step % 2:
                transfers.append((hub, other, nbytes))
            else:
                transfers.append((other, hub, nbytes))
        # Pre-built (n, 3) arrays: the bulk API takes them directly, so
        # the measurement isolates the paths, not list conversion.
        schedule.append(np.asarray(transfers, dtype=np.float64))
    return schedule


def run_bulk_workload(bulk: bool, nodes: int, schedule) -> dict:
    """Simulate the schedule step by step; returns timing + end state.

    Each step is issued once the previous one has fully delivered.
    ``bulk`` issues a step as one ``bulk_transfer`` call; otherwise every
    message is its own process that issues it and waits for its delivery
    (initializer, delivery carrier, delivery and completion events plus a
    generator each).  Both report deliveries through the same handler,
    and must produce bit-identical per-message delivery times.
    """
    env = Environment()
    fabric = Fabric(env, nodes, SPEC)
    delivery_times = []

    def one(src, dst, nbytes, deliver, index):
        delivered = env.event()
        fabric.issue(src, dst, nbytes, delivered.succeed, None)
        yield delivered
        deliver(index)

    def driver():
        for transfers in schedule:
            n = len(transfers)
            times = [0.0] * n
            step_done = env.event()
            remaining = n

            def deliver(index):
                nonlocal remaining
                times[index] = env.now
                remaining -= 1
                if not remaining:
                    step_done.succeed()

            if bulk:
                fabric.bulk_transfer(transfers, handler=deliver)
            else:
                for index, (src, dst, nbytes) in enumerate(
                        transfers.tolist()):
                    env.process(one(int(src), int(dst), nbytes, deliver,
                                    index))
            yield step_done
            delivery_times.append(times)

    proc = env.process(driver(), name="bulk-driver")
    start = time.perf_counter()
    env.run_until_complete(proc)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "finish_time": env.now,
        "bytes_sent": fabric.stats.bytes_sent,
        "messages": fabric.stats.messages,
        "delivery_times": delivery_times,
    }


def bench_bulk(smoke: bool, reps: int) -> dict:
    nodes = 256 if smoke else 1024
    steps = 16 if smoke else 40
    msgs = 512 if smoke else 2048
    schedule = _bulk_steps(nodes, steps, msgs, seed=7)
    total_msgs = steps * msgs

    message_walls, bulk_walls = [], []
    message_state = bulk_state = None
    for _ in range(reps):
        message_state = run_bulk_workload(False, nodes, schedule)
        message_walls.append(message_state.pop("wall_s"))
        bulk_state = run_bulk_workload(True, nodes, schedule)
        bulk_walls.append(bulk_state.pop("wall_s"))
    if (bulk_state.pop("delivery_times")
            != message_state.pop("delivery_times")):
        raise AssertionError(
            "bulk and per-message paths disagree on delivery times")
    if bulk_state != message_state:
        raise AssertionError(
            f"bulk and per-message paths disagree on the simulated "
            f"outcome: per-message={message_state} bulk={bulk_state}")
    # min-of-reps: allocator/GC noise is strictly additive, so the
    # fastest repetition is the cleanest estimate of each path's cost.
    message_s = min(message_walls)
    bulk_s = min(bulk_walls)
    return {
        "case": "bulk",
        "nodes": nodes,
        "bulk_steps": steps,
        "messages": total_msgs,
        "per_message_s": round(message_s, 4),
        "bulk_s": round(bulk_s, 4),
        "per_message_msgs_per_s": round(total_msgs / message_s),
        "bulk_msgs_per_s": round(total_msgs / bulk_s),
        "speedup": round(message_s / bulk_s, 2) if bulk_s else float("inf"),
        "state": message_state,
    }


def bench_scale_sweep(smoke: bool) -> dict:
    """The fig7-scale sweep at 256/1024 nodes through the runner."""
    systems = ("byteps",) if smoke else ("byteps", "byteps-oss")
    budget_s = 600.0 if smoke else 1500.0
    specs = sweep_jobs("fig7_scale", "vgg19", systems, algorithm="onebit",
                       node_counts=(256, 1024), cluster="ec2-v100-1024")
    runner = ExperimentRunner(max_workers=2)
    start = time.perf_counter()
    report = runner.run(specs)
    wall = time.perf_counter() - start
    report.raise_on_failure()
    throughputs = {job_id: payload["throughput"]
                   for job_id, payload in sorted(report.payloads.items())}
    return {
        "case": "scale-sweep",
        "systems": list(systems),
        "node_counts": [256, 1024],
        "jobs": len(specs),
        "wall_s": round(wall, 2),
        "budget_s": budget_s,
        "within_budget": wall <= budget_s,
        "throughput": throughputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workloads and sweep (CI)")
    parser.add_argument("--reps", type=int, default=None,
                        help="measurements per case (default 3 smoke, "
                             "5 full)")
    parser.add_argument("--output", default="BENCH_sim_core.json",
                        help="result JSON path")
    parser.add_argument("--no-check", action="store_true",
                        help="report without enforcing the gated bars")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the 256/1024-node runner sweep")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps else (3 if args.smoke else 5)

    bulk = bench_bulk(args.smoke, reps)
    print(f"bulk        n={bulk['nodes']:<5d} {bulk['messages']} msgs   "
          f"per-message {bulk['per_message_s']:8.3f}s   "
          f"bulk {bulk['bulk_s']:8.3f}s   {bulk['speedup']:6.1f}x")

    results = [bulk]
    sweep = None
    if not args.no_sweep:
        sweep = bench_scale_sweep(args.smoke)
        results.append(sweep)
        print(f"scale-sweep {sweep['jobs']} jobs "
              f"({'+'.join(sweep['systems'])} @ 256/1024 nodes)   "
              f"{sweep['wall_s']:8.1f}s   budget {sweep['budget_s']:.0f}s")

    payload = {"benchmark": "sim_core", "smoke": args.smoke, "reps": reps,
               "bar": BULK_BAR, "results": results}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    if args.no_check:
        return 0
    failures = []
    if bulk["speedup"] < BULK_BAR:
        failures.append(
            f"bulk message-throughput speedup {bulk['speedup']:.1f}x "
            f"< {BULK_BAR:.0f}x bar")
    if sweep is not None and not sweep["within_budget"]:
        failures.append(
            f"scale sweep took {sweep['wall_s']:.0f}s "
            f"> {sweep['budget_s']:.0f}s budget")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"OK: bulk path >= {BULK_BAR:.0f}x per-message message "
          "throughput" + ("" if sweep is None
                          else "; 1024-node sweep within budget"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
