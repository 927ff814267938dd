"""Benchmark: simulated-message throughput of the fabric, and a scale sweep.

Two measurements:

* **issue** (throughput reported, not gated) -- simulated messages per
  second through :meth:`Fabric.issue` (a scalar reservation and one
  pooled delivery carrier per message, the path every engine send and
  coordinator flush takes) on a fan-out + incast workload.  The run's
  simulated outcome -- final clock, bytes and messages -- must equal the
  committed ``BENCH_sim_core.json``'s exactly when that file holds a run
  of the same size: a fast wrong answer is a failure, not a speedup.
  The committed file is read before the new results are written.
* **scale sweep** (gated) -- the fig7-style weak-scaling sweep on the
  256- and 1024-node EC2 presets, executed through the experiment
  runner, asserted to finish within a wall-clock budget.  Its
  ``throughput`` is reported but not compared with the committed run:
  it is a float ``sum()``, whose last bits differ from Python 3.12 on.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_core.py           # full
    PYTHONPATH=src python benchmarks/bench_sim_core.py --smoke   # CI

Writes ``BENCH_sim_core.json`` (override with ``--output``) and exits
non-zero if the issue case's outcome differs from the committed run or
the sweep misses its budget (``--no-check`` to report only);
``--no-sweep`` skips the scale sweep for quick local iteration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.experiments.runner import ExperimentRunner
from repro.experiments.throughput import sweep_jobs
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment

SPEC = NetworkSpec(bandwidth_gbps=100.0, latency_us=8.0, efficiency=0.65)
#: The committed run, whose simulated outcome every run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_sim_core.json"
STATE = ("finish_time", "bytes_sent", "messages")
#: (nodes, steps, messages per step) of the issue case, smoke and full.
SMOKE_SIZE = (256, 16, 512)
FULL_SIZE = (1024, 40, 2048)


def _steps(nodes: int, steps: int, msgs_per_step: int, seed: int):
    """A reproducible mixed fan-out/incast schedule of message steps.

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
        schedule.append(transfers)
    return schedule


def run_workload(nodes: int, schedule) -> dict:
    """Simulate the schedule step by step; returns timing + end state.

    Every message is its own :meth:`Fabric.issue`; the delivery that
    completes one step issues the next.
    """
    env = Environment()
    fabric = Fabric(env, nodes, SPEC)
    steps = iter(schedule)

    def issue_step():
        transfers = next(steps, None)
        if transfers is None:
            return
        remaining = len(transfers)

        def deliver(_token):
            nonlocal remaining
            remaining -= 1
            if not remaining:
                issue_step()

        for src, dst, nbytes in transfers:
            fabric.issue(src, dst, nbytes, deliver, None)

    start = time.perf_counter()
    issue_step()
    env.run()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "finish_time": env.now,
        "bytes_sent": fabric.stats.bytes_sent,
        "messages": fabric.stats.messages,
    }


def bench_issue(smoke: bool, reps: int) -> dict:
    nodes, steps, msgs = SMOKE_SIZE if smoke else FULL_SIZE
    schedule = _steps(nodes, steps, msgs, seed=7)
    total_msgs = steps * msgs

    walls = []
    for _ in range(reps):
        state = run_workload(nodes, schedule)
        walls.append(state.pop("wall_s"))
    # min-of-reps: allocator/GC noise is strictly additive, so the
    # fastest repetition is the cleanest estimate of the path's cost.
    issue_s = min(walls)
    return {
        "case": "issue",
        "nodes": nodes,
        "steps": steps,
        "messages": total_msgs,
        "issue_s": round(issue_s, 4),
        "msgs_per_s": round(total_msgs / issue_s),
        "state": state,
    }


def committed_state(smoke: bool):
    """The committed run's issue ``state`` at this size, or None when the
    committed file holds no issue run of this size."""
    nodes, steps, _msgs = SMOKE_SIZE if smoke else FULL_SIZE
    for row in json.loads(COMMITTED.read_text())["results"]:
        if (row["case"] == "issue" and row["nodes"] == nodes
                and row["steps"] == steps):
            return row["state"]
    return None


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

    committed = committed_state(args.smoke)
    issue = bench_issue(args.smoke, reps)
    print(f"issue       n={issue['nodes']:<5d} {issue['messages']} msgs   "
          f"{issue['issue_s']:8.3f}s   {issue['msgs_per_s']} msgs/s")

    results = [issue]
    sweep = None
    if not args.no_sweep:
        sweep = bench_scale_sweep(args.smoke)
        results.append(sweep)
        print(f"scale-sweep {sweep['jobs']} jobs "
              f"({'+'.join(sweep['systems'])} @ 256/1024 nodes)   "
              f"{sweep['wall_s']:8.1f}s   budget {sweep['budget_s']:.0f}s")

    payload = {"benchmark": "sim_core", "smoke": args.smoke, "reps": reps,
               "results": results}
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    if args.no_check:
        return 0
    failures = []
    if committed is None:
        print("note: no committed issue run of this size to compare")
    else:
        failures += [f"issue: {key} {issue['state'][key]!r} != committed "
                     f"{committed[key]!r}" for key in STATE
                     if issue["state"][key] != committed[key]]
    if sweep is not None and not sweep["within_budget"]:
        failures.append(f"scale sweep took {sweep['wall_s']:.0f}s "
                        f"> {sweep['budget_s']:.0f}s budget")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("OK: issue outcome "
          + ("matches the committed run" if committed is not None
             else "not compared")
          + ("; 1024-node sweep within budget" if sweep is not None else ""))
    return 0

if __name__ == "__main__":
    sys.exit(main())
