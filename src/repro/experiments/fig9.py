"""Figure 9: GPU utilization timelines, Ring vs HiPress.

The paper's nsight traces show both systems peak at ~100% GPU, but Ring's
utilization collapses to zero during gradient transmission while HiPress
keeps the GPU busy.  We reproduce the same signal from telemetry: kernel
spans recorded on node 0's compute stream (track ``node0/gpu-compute``),
binned into the fraction of each time bin spent on DNN work -- the
simulator-side equivalent of an nsight timeline.

If an ambient collector is attached (``repro.telemetry.attach`` /
``telemetry_session``), the runs are recorded into it, so a ``--trace``
invocation of the CLI captures fig9's underlying spans too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..cluster import ec2_v100_cluster
from ..telemetry import (TelemetryCollector, current_collector,
                         utilization_series)
from .common import JobSpec, execute_serial, format_table, run_system

__all__ = ["jobs", "run", "run_job", "assemble", "render",
           "UtilizationTrace"]

PANELS = {
    "bert-large": ("hipress-ring", "onebit"),
    "ugatit": ("hipress-ps", "terngrad"),
}


@dataclass(frozen=True)
class UtilizationTrace:
    model: str
    ring_series: Tuple[float, ...]
    hipress_series: Tuple[float, ...]
    ring_mean: float
    hipress_mean: float


def _traced_utilization(system, model, cluster, bin_s, algorithm=None):
    """Run one system and bin its node-0 compute-kernel spans.

    Records into the ambient collector when one is attached (so a CLI
    ``--trace`` captures the spans), a private one otherwise.
    """
    tel = current_collector() or TelemetryCollector()
    result = run_system(system, model, cluster, algorithm=algorithm,
                        telemetry=tel)
    series = utilization_series(
        tel, track="node0/gpu-compute", bin_width=bin_s,
        horizon=result.iteration_time, run=len(tel.runs) - 1)
    return tuple(series)


def jobs(num_nodes: int = 16, bin_s: float = 0.02) -> List[JobSpec]:
    """One traced run per (panel model, system)."""
    specs = []
    for model, (hipress_system, algorithm) in PANELS.items():
        for system, algo in (("ring", None), (hipress_system, algorithm)):
            specs.append(JobSpec(
                artifact="fig9",
                job_id=f"fig9/{model}-{system}-n{num_nodes}",
                module=__name__,
                params={"model": model, "system": system, "algorithm": algo,
                        "num_nodes": num_nodes, "bin_s": bin_s}))
    return specs


def run_job(model: str, system: str, algorithm, num_nodes: int,
            bin_s: float) -> List[float]:
    return list(_traced_utilization(system, model,
                                    ec2_v100_cluster(num_nodes), bin_s,
                                    algorithm=algorithm))


def assemble(payloads: Mapping[str, List[float]], num_nodes: int = 16,
             bin_s: float = 0.02) -> Dict[str, UtilizationTrace]:
    traces = {}
    for model, (hipress_system, _) in PANELS.items():
        ring_series = tuple(
            payloads[f"fig9/{model}-ring-n{num_nodes}"])
        hipress_series = tuple(
            payloads[f"fig9/{model}-{hipress_system}-n{num_nodes}"])
        traces[model] = UtilizationTrace(
            model=model,
            ring_series=ring_series,
            hipress_series=hipress_series,
            ring_mean=(sum(ring_series) / len(ring_series)
                       if ring_series else 0.0),
            hipress_mean=(sum(hipress_series) / len(hipress_series)
                          if hipress_series else 0.0))
    return traces


def run(num_nodes: int = 16, bin_s: float = 0.02) -> Dict[str, UtilizationTrace]:
    return assemble(execute_serial(jobs(num_nodes=num_nodes, bin_s=bin_s)),
                    num_nodes=num_nodes, bin_s=bin_s)


def _sparkline(series: Tuple[float, ...], width: int = 40) -> str:
    glyphs = " .:-=+*#%@"
    if not series:
        return ""
    step = max(1, len(series) // width)
    sampled = [max(series[i:i + step]) for i in range(0, len(series), step)]
    return "".join(glyphs[min(int(v * (len(glyphs) - 1)), len(glyphs) - 1)]
                   for v in sampled)


def render(traces: Dict[str, UtilizationTrace]) -> str:
    parts = ["Figure 9 -- GPU utilization during one iteration "
             "(paper: Ring goes idle during transmission; HiPress stays busy)"]
    rows = []
    for model, trace in traces.items():
        rows.append([model, "Ring", f"{trace.ring_mean:.0%}",
                     _sparkline(trace.ring_series)])
        rows.append([model, "HiPress", f"{trace.hipress_mean:.0%}",
                     _sparkline(trace.hipress_series)])
    parts.append(format_table(
        ["model", "system", "mean util", "timeline (dense = busy)"], rows))
    return "\n".join(parts)
