"""CLI: run compression policies and compare them side by side.

Usage::

    python -m repro.adaptive bert-large --policy fixed:algorithm=onebit
    python -m repro.adaptive vgg19 --policy accordion --policy fixed:algorithm=dgc \
        --cluster ec2-v100 --nodes 8 --iterations 8
    python -m repro.adaptive lstm --policy bandwidth --save-log log.json
    python -m repro.adaptive lstm --policy bandwidth --replay log.json

``--policy`` is repeatable and takes the ``kind[:key=value,...]`` grammar
of :func:`repro.adaptive.parse_policy` (kinds: ``fixed``, ``size``,
``bandwidth``, ``accordion``).  With several policies the CLI prints one
comparison table; ``--json`` dumps every run's full
:meth:`~repro.adaptive.PolicyRun.to_json_obj` payload.

``--save-log`` writes the (single) run's decision log; ``--replay``
re-executes a recorded log instead of consulting the controller -- the
determinism contract says the results are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..cluster import CLUSTER_PRESETS, get_cluster
from ..errors import ConfigError
from ..experiments.common import format_table
from .controller import DecisionLog
from .policy import parse_policy
from .runtime import PLANNER_KINDS, run_policy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.adaptive",
        description="Run gradient-compression policies on the simulator.")
    parser.add_argument("model", help="model zoo name, e.g. bert-large")
    parser.add_argument("--policy", action="append", metavar="SPEC",
                        help="policy spec 'kind[:key=value,...]' "
                             "(repeatable; default fixed:algorithm=onebit)")
    parser.add_argument("--cluster", default="ec2-v100",
                        choices=sorted(CLUSTER_PRESETS),
                        help="cluster preset (default: ec2-v100)")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="override the preset's node count")
    parser.add_argument("--strategy", default="casync-ps",
                        choices=sorted(PLANNER_KINDS),
                        help="CaSync strategy (default: casync-ps)")
    parser.add_argument("--iterations", type=int, default=8, metavar="N",
                        help="iterations per policy run (default: 8)")
    parser.add_argument("--json", metavar="FILE",
                        help="write all runs' JSON payloads to FILE "
                             "('-' for stdout)")
    parser.add_argument("--save-log", metavar="FILE",
                        help="write the decision log (single policy only)")
    parser.add_argument("--replay", metavar="FILE",
                        help="replay a recorded decision log "
                             "(single policy only)")
    args = parser.parse_args(argv)

    specs = args.policy or ["fixed:algorithm=onebit"]
    if (args.save_log or args.replay) and len(specs) != 1:
        parser.error("--save-log/--replay take exactly one --policy")
    if args.nodes is not None and args.nodes < 1:
        parser.error(f"--nodes must be at least 1, got {args.nodes}")
    try:
        policies = [parse_policy(spec) for spec in specs]
    except ConfigError as exc:
        parser.error(str(exc))

    cluster = get_cluster(args.cluster, num_nodes=args.nodes)
    replay = None
    if args.replay:
        try:
            replay = DecisionLog.from_json(Path(args.replay).read_text())
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            parser.error(f"--replay {args.replay}: cannot read a decision "
                         f"log ({type(exc).__name__}: {exc})")

    runs = []
    for policy in policies:
        try:
            runs.append(run_policy(
                args.model, cluster, policy, strategy=args.strategy,
                iterations=args.iterations, replay=replay))
        except ConfigError as exc:
            parser.error(str(exc))

    rows = []
    for run in runs:
        payload = run.to_json_obj()
        compressed = payload["compressed_per_iteration"]
        rows.append([
            run.policy.describe(),
            f"{run.mean_iteration_time * 1e3:.2f}",
            f"{run.mean_throughput:.1f}",
            f"{sum(compressed) / len(compressed):.1f}" if compressed
            else "static",
        ])
    print(f"{args.model} x {cluster.name} ({cluster.num_nodes} nodes), "
          f"{args.strategy}, {args.iterations} iteration(s)")
    print(format_table(
        ["policy", "mean iter (ms)", "images-or-samples/s",
         "compressed grads/iter"], rows))
    if len(runs) > 1:
        best = min(runs, key=lambda r: r.mean_iteration_time)
        print(f"[best: {best.policy.describe()}]")

    if args.json:
        text = json.dumps([r.to_json_obj() for r in runs],
                          indent=1, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
            print(f"[json -> {args.json}]")
    if args.save_log:
        Path(args.save_log).write_text(runs[0].log.to_json() + "\n")
        print(f"[decision log: {len(runs[0].log)} entries -> "
              f"{args.save_log}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
