"""Compression win/loss across heterogeneous cluster regimes.

Not a paper artifact: this driver exercises the per-node / per-link
cluster model (``docs/CLUSTERS.md``).  The paper's §6 evaluation is
homogeneous; "On the Utility of Gradient Compression" and "Beyond
Throughput and Compression Ratios" (PAPERS.md) argue the compress-or-not
verdict flips precisely when the cluster is *not* uniform.  Each
:func:`scenarios` row is one regime:

* ``baseline`` -- the homogeneous EC2 testbed (the reference point);
* ``straggler-<s>`` -- the same testbed with a deterministic straggler
  tail, severity ``s`` (an eighth of the NICs at ``1/s`` of the rate);
* ``wan-<g>`` -- a quarter of the nodes behind ``g`` Gbps-up WAN links
  with 20 ms latency (the geo-distributed / edge regime);
* ``mixed`` -- the mixed-generation V100 + 1080 Ti fleet.

On every scenario the uncompressed ``ring`` baseline races
``hipress-ring`` (CaSync + selective DGC compression), one job per
(scenario, system) point.  The payloads carry the §3.3 planner's
per-scenario verdicts, so ``assemble`` reports how many gradients flip
their compress/partition decision relative to the homogeneous baseline
-- the refactor's observable effect -- alongside the end-to-end speedup
that decides the win/loss column.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster import ClusterSpec, get_cluster
from ..models import get_model
from .common import (JobSpec, default_algorithm, execute_serial,
                     format_table, make_plans, run_system)

__all__ = ["SYSTEMS_UNDER_TEST", "scenarios", "scenario_cluster", "jobs",
           "run_job", "run", "assemble", "render"]

#: (system key, compression algorithm) -- the uncompressed reference and
#: the selective-compression contender.
SYSTEMS_UNDER_TEST: Tuple[Tuple[str, Optional[str]], ...] = (
    ("ring", None),
    ("hipress-ring", "dgc"),
)


def scenarios(num_nodes: int = 16,
              severities: Sequence[float] = (2.0, 4.0, 8.0),
              wan_up_gbps: Sequence[float] = (0.5, 1.0, 4.0)
              ) -> List[Dict[str, Any]]:
    """The heterogeneity regimes under test (JSON rows; see
    :func:`scenario_cluster`)."""
    rows: List[Dict[str, Any]] = [
        {"key": "baseline", "kind": "baseline", "num_nodes": num_nodes,
         "severity": None, "wan_up_gbps": None},
    ]
    for severity in severities:
        rows.append({"key": f"straggler-{severity:g}", "kind": "straggler",
                     "num_nodes": num_nodes, "severity": severity,
                     "wan_up_gbps": None})
    for gbps in wan_up_gbps:
        rows.append({"key": f"wan-{gbps:g}", "kind": "wan",
                     "num_nodes": num_nodes, "severity": None,
                     "wan_up_gbps": gbps})
    rows.append({"key": "mixed", "kind": "mixed", "num_nodes": num_nodes,
                 "severity": None, "wan_up_gbps": None})
    return rows


def scenario_cluster(kind: str, num_nodes: int,
                     severity: Optional[float] = None,
                     wan_up_gbps: Optional[float] = None) -> ClusterSpec:
    """Materialize one scenario row's cluster from its JSON params."""
    if kind == "baseline":
        return get_cluster("ec2-v100", num_nodes=num_nodes)
    if kind == "straggler":
        return get_cluster("ec2-v100-straggler", num_nodes=num_nodes,
                           severity=severity)
    if kind == "wan":
        return get_cluster("wan-edge", num_nodes=num_nodes,
                           wan_up_gbps=wan_up_gbps)
    if kind == "mixed":
        return get_cluster("hetero-mixed", num_nodes=num_nodes)
    raise ValueError(f"unknown scenario kind {kind!r}")


def jobs(num_nodes: int = 16,
         severities: Sequence[float] = (2.0, 4.0, 8.0),
         wan_up_gbps: Sequence[float] = (0.5, 1.0, 4.0),
         model: str = "vgg19") -> List[JobSpec]:
    """One job per (scenario, system) point."""
    specs: List[JobSpec] = []
    for scenario in scenarios(num_nodes=num_nodes, severities=severities,
                              wan_up_gbps=wan_up_gbps):
        for system, algorithm in SYSTEMS_UNDER_TEST:
            specs.append(JobSpec(
                artifact="heterogeneous",
                job_id=f"heterogeneous/{scenario['key']}-{system}",
                module="repro.experiments.heterogeneous",
                params={
                    "model": model,
                    "system": system,
                    "algorithm": algorithm,
                    "kind": scenario["kind"],
                    "num_nodes": scenario["num_nodes"],
                    "severity": scenario["severity"],
                    "wan_up_gbps": scenario["wan_up_gbps"],
                }))
    return specs


def run_job(model: str, system: str, algorithm: Optional[str], kind: str,
            num_nodes: int, severity: Optional[float],
            wan_up_gbps: Optional[float]) -> Dict[str, Any]:
    """Run one system on one scenario; compressed systems also report the
    §3.3 planner's per-gradient verdicts for the flip analysis."""
    cluster = scenario_cluster(kind, num_nodes, severity=severity,
                               wan_up_gbps=wan_up_gbps)
    result = run_system(system, model, cluster, algorithm=algorithm)
    payload: Dict[str, Any] = {
        "cluster": cluster.name,
        "num_nodes": cluster.num_nodes,
        "iteration_time": result.iteration_time,
        "comm_ratio": result.comm_ratio,
        "exposed_sync_time": result.exposed_sync_time,
    }
    if algorithm is not None:
        plans = make_plans(get_model(model), cluster,
                           default_algorithm(algorithm), "ring")
        payload["verdicts"] = {
            name: [plan.compress, plan.partitions]
            for name, plan in sorted(plans.items())}
        payload["compressed_gradients"] = sum(
            1 for plan in plans.values() if plan.compress)
    return payload


def assemble(payloads: Mapping[str, Dict],
             num_nodes: int = 16,
             severities: Sequence[float] = (2.0, 4.0, 8.0),
             wan_up_gbps: Sequence[float] = (0.5, 1.0, 4.0),
             model: str = "vgg19") -> Dict[str, Dict]:
    """Fold job payloads into the per-scenario win/loss table.

    Each scenario's entry carries both systems' payloads, the
    compression ``speedup`` (uncompressed / compressed iteration time,
    > 1 means compression wins), and ``verdict_flips`` -- how many
    gradients changed their <compress?, K> verdict relative to the
    homogeneous baseline scenario.
    """
    baseline_key = None
    results: Dict[str, Dict] = {}
    compressed_system = SYSTEMS_UNDER_TEST[1][0]
    plain_system = SYSTEMS_UNDER_TEST[0][0]
    rows = scenarios(num_nodes=num_nodes, severities=severities,
                     wan_up_gbps=wan_up_gbps)
    base_verdicts = None
    for scenario in rows:
        if scenario["kind"] == "baseline":
            baseline_key = scenario["key"]
            base_verdicts = payloads[
                f"heterogeneous/{baseline_key}-{compressed_system}"][
                "verdicts"]
    for scenario in rows:
        key = scenario["key"]
        plain = payloads[f"heterogeneous/{key}-{plain_system}"]
        compressed = payloads[f"heterogeneous/{key}-{compressed_system}"]
        flips = sum(
            1 for name, verdict in compressed["verdicts"].items()
            if base_verdicts.get(name) != verdict)
        results[key] = {
            "scenario": scenario,
            "systems": {plain_system: plain,
                        compressed_system: compressed},
            "speedup": plain["iteration_time"]
            / compressed["iteration_time"],
            "compression_wins": (compressed["iteration_time"]
                                 < plain["iteration_time"]),
            "compressed_gradients": compressed["compressed_gradients"],
            "verdict_flips": flips,
        }
    return results


def run(num_nodes: int = 16,
        severities: Sequence[float] = (2.0, 4.0, 8.0),
        wan_up_gbps: Sequence[float] = (0.5, 1.0, 4.0),
        model: str = "vgg19") -> Dict[str, Dict]:
    kwargs = dict(num_nodes=num_nodes, severities=severities,
                  wan_up_gbps=wan_up_gbps, model=model)
    return assemble(execute_serial(jobs(**kwargs)), **kwargs)


def render(results: Dict[str, Dict]) -> str:
    plain_system = SYSTEMS_UNDER_TEST[0][0]
    compressed_system = SYSTEMS_UNDER_TEST[1][0]
    first = next(iter(results.values()))
    parts = [
        f"Compression win/loss across heterogeneous regimes "
        f"({first['scenario']['num_nodes']} nodes): "
        f"{plain_system} vs {compressed_system}"]
    table = []
    for key, result in results.items():
        systems = result["systems"]
        table.append([
            key,
            f"{systems[plain_system]['iteration_time'] * 1e3:.2f}",
            f"{systems[compressed_system]['iteration_time'] * 1e3:.2f}",
            f"{result['speedup']:.2f}x",
            "win" if result["compression_wins"] else "loss",
            str(result["compressed_gradients"]),
            str(result["verdict_flips"]),
        ])
    parts.append(format_table(
        ["scenario", f"{plain_system} (ms)", f"{compressed_system} (ms)",
         "speedup", "compression", "compressed", "verdict flips"], table))
    flipped = [k for k, r in results.items() if r["verdict_flips"]]
    if flipped:
        parts.append(
            f"  planner verdicts flip vs the homogeneous baseline on: "
            f"{', '.join(flipped)}")
    return "\n".join(parts)
