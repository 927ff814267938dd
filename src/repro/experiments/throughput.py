"""Weak-scaling throughput sweeps shared by Figures 7, 8 and 10."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster import ClusterSpec, ec2_v100_cluster
from .common import (CLUSTER_FACTORIES, JobSpec, SYSTEMS, format_table,
                     run_system)

__all__ = ["ThroughputSweep", "sweep", "render_sweep", "speedup",
           "sweep_jobs", "run_sweep_job", "assemble_sweep"]


@dataclass(frozen=True)
class ThroughputSweep:
    """Throughput (samples or tokens / s) per system per GPU count."""

    model: str
    algorithm: Optional[str]
    gpu_counts: Tuple[int, ...]
    #: system key -> tuple of throughput values aligned with gpu_counts.
    series: Dict[str, Tuple[float, ...]]

    def speedup(self, system: str, baseline: str,
                index: int = -1) -> float:
        """Relative throughput gain of ``system`` over ``baseline``."""
        return (self.series[system][index] / self.series[baseline][index]
                - 1.0)


def sweep(model: str, systems: Sequence[str],
          algorithm: Optional[str] = None,
          node_counts: Sequence[int] = (1, 2, 4, 8, 16),
          cluster_fn: Callable[[int], ClusterSpec] = ec2_v100_cluster,
          on_ec2: bool = True) -> ThroughputSweep:
    """Run the weak-scaling sweep of Fig. 7/8: throughput vs #GPUs."""
    series: Dict[str, List[float]] = {s: [] for s in systems}
    gpus = []
    for nodes in node_counts:
        cluster = cluster_fn(nodes)
        gpus.append(cluster.total_gpus)
        for system in systems:
            algo = algorithm if SYSTEMS[system].compression else None
            result = run_system(system, model, cluster, algorithm=algo,
                                on_ec2=on_ec2)
            series[system].append(result.throughput)
    return ThroughputSweep(
        model=model, algorithm=algorithm, gpu_counts=tuple(gpus),
        series={k: tuple(v) for k, v in series.items()})


def sweep_jobs(artifact: str, model: str, systems: Sequence[str],
               algorithm: Optional[str] = None,
               node_counts: Sequence[int] = (1, 2, 4, 8, 16),
               cluster: str = "ec2",
               on_ec2: bool = True) -> List[JobSpec]:
    """The sweep of :func:`sweep`, decomposed one job per
    (system, cluster point) -- the runner's unit of parallelism."""
    specs = []
    for nodes in node_counts:
        for system in systems:
            algo = algorithm if SYSTEMS[system].compression else None
            specs.append(JobSpec(
                artifact=artifact,
                job_id=f"{artifact}/{model}-{system}-n{nodes}",
                module=__name__, call="run_sweep_job",
                params={"model": model, "system": system,
                        "algorithm": algo, "nodes": nodes,
                        "cluster": cluster, "on_ec2": on_ec2}))
    return specs


def run_sweep_job(model: str, system: str, algorithm: Optional[str],
                  nodes: int, cluster: str = "ec2",
                  on_ec2: bool = True) -> Dict:
    factory = CLUSTER_FACTORIES.get(cluster)
    if factory is not None:
        spec = factory(nodes)
    else:
        # Fall back to the full preset registry, which also carries the
        # datacenter-scale variants (ec2-v100-256, ec2-v100-1024).
        from ..cluster import get_cluster
        spec = get_cluster(cluster, num_nodes=nodes)
    result = run_system(system, model, spec, algorithm=algorithm,
                        on_ec2=on_ec2)
    return {"gpus": spec.total_gpus, "throughput": result.throughput}


def assemble_sweep(payloads: Mapping[str, Dict], artifact: str, model: str,
                   systems: Sequence[str],
                   algorithm: Optional[str] = None,
                   node_counts: Sequence[int] = (1, 2, 4, 8, 16)
                   ) -> ThroughputSweep:
    series: Dict[str, List[float]] = {s: [] for s in systems}
    gpus = []
    for nodes in node_counts:
        gpus.append(payloads[f"{artifact}/{model}-{systems[0]}-n{nodes}"]
                    ["gpus"])
        for system in systems:
            series[system].append(
                payloads[f"{artifact}/{model}-{system}-n{nodes}"]
                ["throughput"])
    return ThroughputSweep(
        model=model, algorithm=algorithm, gpu_counts=tuple(gpus),
        series={k: tuple(v) for k, v in series.items()})


def render_sweep(result: ThroughputSweep, title: str) -> str:
    headers = ["system"] + [f"{g} GPUs" for g in result.gpu_counts]
    rows = []
    for system, values in result.series.items():
        rows.append([SYSTEMS[system].label]
                    + [f"{v:,.0f}" for v in values])
    return f"{title}\n" + format_table(headers, rows)


def speedup(result: ThroughputSweep, system: str, baseline: str) -> float:
    return result.speedup(system, baseline)
