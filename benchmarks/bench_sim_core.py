"""Benchmark: the agenda's per-entry cost, fabric throughput, a scale sweep.

Three measurements:

* **agenda** (cost reported, not gated) -- host microseconds per agenda
  entry: a chain of zero-delay URGENT hops, each
  :meth:`Environment.call_later` scheduling the next, then a cancel-churn
  phase that arms far-future timers and cancels them from a tick entry.
  Its outcome -- entries stepped, final clock and cancellations -- must
  equal the committed run's exactly.
* **issue** (throughput reported, not gated) -- simulated messages per
  second through :meth:`Fabric.issue` (a scalar reservation and one
  delivery entry per message, the path every engine send and
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
non-zero if the agenda or issue case's outcome differs from the
committed run or the sweep misses its budget (``--no-check`` to report only);
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
from repro.sim import URGENT, Environment

SPEC = NetworkSpec(bandwidth_gbps=100.0, latency_us=8.0, efficiency=0.65)
#: The committed run, whose simulated outcome every run must reproduce.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_sim_core.json"
STATE = ("finish_time", "bytes_sent", "messages")
AGENDA_STATE = ("steps", "final_time", "cancellations")
#: (nodes, steps, messages per step) of the issue case, smoke and full.
SMOKE_SIZE = (256, 16, 512)
FULL_SIZE = (1024, 40, 2048)
#: (hops, churn rounds, timers armed and cancelled per round) of the
#: agenda case, smoke and full alike.
AGENDA_SIZE = (200_000, 400, 50)
#: Simulated seconds between two churn rounds.
CHURN_TICK = 0.001


def run_agenda(hops: int, rounds: int, timers: int) -> dict:
    """Step ``hops`` chained URGENT hops, then ``rounds`` of cancel churn.

    Returns the wall time of each phase and the end state.  ``steps``
    counts the callbacks that ran, so a cancelled timer that fired would
    show (it also raises).
    """
    env = Environment()
    steps = 0

    def hop(left: int) -> None:
        nonlocal steps
        steps += 1
        if left:
            env.call_later(0.0, hop, left - 1, URGENT)

    def never(_value: None) -> None:
        raise AssertionError("a cancelled timer fired")

    def arm(round_: int) -> None:
        armed = [env.call_later(1.0 + i, never) for i in range(timers)]
        env.call_later(CHURN_TICK, churn, (round_, armed))

    def churn(round_and_armed) -> None:
        nonlocal steps
        steps += 1
        round_, armed = round_and_armed
        for timer in armed:
            env.cancel(timer)
        if round_ + 1 < rounds:
            arm(round_ + 1)

    start = time.perf_counter()
    env.call_later(0.0, hop, hops - 1, URGENT)
    env.run()
    hop_wall = time.perf_counter() - start
    start = time.perf_counter()
    arm(0)
    env.run()
    churn_wall = time.perf_counter() - start
    return {
        "hop_s": hop_wall,
        "churn_s": churn_wall,
        "state": {"steps": steps, "final_time": env.now,
                  "cancellations": env.cancellations},
    }


def bench_agenda(reps: int) -> dict:
    hops, rounds, timers = AGENDA_SIZE
    runs = [run_agenda(hops, rounds, timers) for _ in range(reps)]
    # min-of-reps, as for the issue case.
    hop_s = min(run["hop_s"] for run in runs)
    churn_s = min(run["churn_s"] for run in runs)
    return {
        "case": "agenda",
        "hops": hops,
        "rounds": rounds,
        "timers": timers,
        "us_per_hop": round(hop_s / hops * 1e6, 3),
        "us_per_cancelled_timer": round(churn_s / (rounds * timers) * 1e6,
                                        3),
        "state": runs[-1]["state"],
    }


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


def committed_state(case: str, size: dict):
    """The committed run's ``state`` of ``case`` at ``size`` (the row's
    size fields), or None when the committed file holds no such run."""
    for row in json.loads(COMMITTED.read_text())["results"]:
        if row["case"] == case and all(row.get(key) == value
                                       for key, value in size.items()):
            return row["state"]
    return None


def state_failures(case: str, keys, state: dict, committed) -> list:
    """One message per ``keys`` value differing from the committed run."""
    if committed is None:
        print(f"note: no committed {case} run of this size to compare")
        return []
    return [f"{case}: {key} {state[key]!r} != committed {committed[key]!r}"
            for key in keys if state[key] != committed[key]]


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

    hops, rounds, timers = AGENDA_SIZE
    committed_agenda = committed_state(
        "agenda", {"hops": hops, "rounds": rounds, "timers": timers})
    nodes, steps, _msgs = SMOKE_SIZE if args.smoke else FULL_SIZE
    committed_issue = committed_state("issue",
                                      {"nodes": nodes, "steps": steps})
    agenda = bench_agenda(reps)
    print(f"agenda      {agenda['hops']} hops   "
          f"{agenda['us_per_hop']:.3f} us/hop   "
          f"{agenda['us_per_cancelled_timer']:.3f} us/cancelled timer")
    issue = bench_issue(args.smoke, reps)
    print(f"issue       n={issue['nodes']:<5d} {issue['messages']} msgs   "
          f"{issue['issue_s']:8.3f}s   {issue['msgs_per_s']} msgs/s")

    results = [agenda, issue]
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
    failures = (state_failures("agenda", AGENDA_STATE, agenda["state"],
                               committed_agenda)
                + state_failures("issue", STATE, issue["state"],
                                 committed_issue))
    if sweep is not None and not sweep["within_budget"]:
        failures.append(f"scale sweep took {sweep['wall_s']:.0f}s "
                        f"> {sweep['budget_s']:.0f}s budget")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    compared = [case for case, committed in (("agenda", committed_agenda),
                                             ("issue", committed_issue))
                if committed is not None]
    print("OK: " + ("/".join(compared) + " outcome matches the committed run"
                    if compared else "no outcome compared")
          + ("; 1024-node sweep within budget" if sweep is not None else ""))
    return 0

if __name__ == "__main__":
    sys.exit(main())
