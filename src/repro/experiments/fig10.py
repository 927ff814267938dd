"""Figure 10: local-cluster speedups normalized to BytePS.

Bert-base and VGG19 atop MXNet with onebit on the 16-node / 32x1080Ti /
56 Gbps InfiniBand cluster (RDMA for everything, including BytePS).
Paper: HiPress beats the non-compression baselines by up to 133.1% and
BytePS(OSS-onebit) by up to 53.3%; surprisingly, BytePS(OSS-onebit) runs
8.5% *slower* than non-compression Ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..cluster import local_1080ti_cluster
from .common import (JobSpec, SYSTEMS, execute_serial, format_table,
                     run_system)

__all__ = ["PAPER", "jobs", "run", "run_job", "assemble", "render"]

SYSTEM_KEYS = ("byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring")

#: Paper claims (§6.2.2).
PAPER = {
    "max_gain_over_noncompression": 1.331,
    "max_gain_over_oss": 0.533,
    "oss_vs_ring_slowdown": -0.085,
}


@dataclass(frozen=True)
class Fig10Result:
    model: str
    #: system key -> speedup normalized to BytePS (1.0 = BytePS).
    normalized: Dict[str, float]


def jobs(models: Sequence[str] = ("bert-base", "vgg19"),
         num_nodes: int = 16) -> List[JobSpec]:
    """One job per (model, system) on the local cluster."""
    specs = []
    for model in models:
        for system in SYSTEM_KEYS:
            algo = "onebit" if SYSTEMS[system].compression else None
            specs.append(JobSpec(
                artifact="fig10",
                job_id=f"fig10/{model}-{system}-n{num_nodes}",
                module=__name__,
                params={"model": model, "system": system, "algorithm": algo,
                        "num_nodes": num_nodes}))
    return specs


def run_job(model: str, system: str, algorithm, num_nodes: int) -> Dict:
    result = run_system(system, model, local_1080ti_cluster(num_nodes),
                        algorithm=algorithm, on_ec2=False)
    return {"throughput": result.throughput}


def assemble(payloads: Mapping[str, Dict],
             models: Sequence[str] = ("bert-base", "vgg19"),
             num_nodes: int = 16) -> Dict[str, Fig10Result]:
    out = {}
    for model in models:
        throughput = {
            system: payloads[f"fig10/{model}-{system}-n{num_nodes}"]
            ["throughput"]
            for system in SYSTEM_KEYS
        }
        base = throughput["byteps"]
        out[model] = Fig10Result(
            model=model,
            normalized={k: v / base for k, v in throughput.items()})
    return out


def run(models: Sequence[str] = ("bert-base", "vgg19"),
        num_nodes: int = 16) -> Dict[str, Fig10Result]:
    return assemble(execute_serial(jobs(models=models,
                                        num_nodes=num_nodes)),
                    models=models, num_nodes=num_nodes)


def render(results: Dict[str, Fig10Result]) -> str:
    headers = ["model"] + [SYSTEMS[s].label for s in SYSTEM_KEYS]
    rows = []
    for model, result in results.items():
        rows.append([model] + [f"{result.normalized[s]:.2f}x"
                               for s in SYSTEM_KEYS])
    lines = ["Figure 10 -- local cluster (32x1080Ti, 56Gbps), "
             "speedup normalized to BytePS",
             format_table(headers, rows)]
    for model, result in results.items():
        best_hipress = max(result.normalized["hipress-ps"],
                           result.normalized["hipress-ring"])
        best_base = max(result.normalized["byteps"],
                        result.normalized["ring"])
        lines.append(
            f"  {model}: HiPress vs best non-compression "
            f"+{best_hipress / best_base - 1:.1%} (paper: up to "
            f"+{PAPER['max_gain_over_noncompression']:.1%}); "
            f"vs OSS +{best_hipress / result.normalized['byteps-oss'] - 1:.1%}"
            f" (paper: up to +{PAPER['max_gain_over_oss']:.1%}); "
            f"OSS vs Ring "
            f"{result.normalized['byteps-oss'] / result.normalized['ring'] - 1:+.1%}"
            f" (paper: {PAPER['oss_vs_ring_slowdown']:+.1%})")
    return "\n".join(lines)
