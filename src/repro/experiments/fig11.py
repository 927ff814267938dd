"""Figure 11: effectiveness of the individual optimizations (ablation).

Stacks the CaSync optimizations one by one on the local cluster and
reports the synchronization cost (iteration time minus compute) at each
stage, exactly as the paper's latency breakdown does:

* ``default``    -- best non-compression baseline (BytePS for VGG19,
                    Ring for Bert-base);
* ``on-cpu``     -- open-source on-CPU onebit inside BytePS (VGG19 only;
                    "this does not apply to Bert-base since Ring uses GPU");
* ``on-gpu``     -- CompLL on-GPU compression, no CaSync optimizations;
* ``+pipelining``-- partition-level compression/communication overlap;
* ``+bulk``      -- coordinator message batching + batch compression;
* ``+secopa``    -- selective compression and partitioning.

Paper deltas: VGG19 sync cost falls 41.2% (on-GPU), then 7.8%
(pipelining), 26.1% (bulk), 19.9% (SeCoPa); Bert-base falls 10.0%, 10.6%,
6.6%, 7.4%; on-CPU *adds* 32.2% for VGG19.

Since the SyncPlan IR refactor, each ablation stage corresponds exactly
to removing optimization passes from the strategy's pipeline
(:meth:`~repro.strategies.base.Strategy.passes`): ``on-gpu`` runs with no
optional passes, ``+pipelining`` adds PartitionPass, ``+bulk`` adds
BulkRoutePass, and ``+secopa`` adds SelectivePass -- so this figure is
literally a pass-pipeline ablation.  Inspect any stage's IR with
``python -m repro.experiments fig11 --dump-sync-plan DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..cluster import local_1080ti_cluster
from ..strategies import (
    BytePS,
    BytePSOSSCompression,
    CaSyncPS,
    CaSyncRing,
    RingAllreduce,
)
from ..training import simulate_iteration
from .common import JobSpec, default_algorithm, execute_serial, format_table

__all__ = ["PAPER_DELTAS", "jobs", "run", "run_job", "assemble", "render",
           "AblationStage"]

#: Paper per-stage relative sync-cost changes (negative = reduction).
PAPER_DELTAS: Dict[str, Dict[str, float]] = {
    "vgg19": {"on-cpu": +0.322, "on-gpu": -0.412, "+pipelining": -0.078,
              "+bulk": -0.261, "+secopa": -0.199},
    "bert-base": {"on-gpu": -0.100, "+pipelining": -0.106,
                  "+bulk": -0.066, "+secopa": -0.074},
}


@dataclass(frozen=True)
class AblationStage:
    stage: str
    sync_time: float
    compute_time: float
    delta_vs_previous: Optional[float]
    paper_delta: Optional[float]


#: CaSync flags per stage: each stage adds one optional pass.
_CASYNC_FLAGS: Dict[str, Dict[str, bool]] = {
    "on-gpu": dict(pipelining=False, bulk=False, selective=False),
    "+pipelining": dict(pipelining=True, bulk=False, selective=False),
    "+bulk": dict(pipelining=True, bulk=True, selective=False),
    "+secopa": dict(pipelining=True, bulk=True, selective=True),
}


def _stages_for(model_name: str):
    """(baseline strategy, casync class, has an on-CPU stage) per §6.3."""
    if model_name == "vgg19":
        return BytePS(), CaSyncPS, True
    return RingAllreduce(), CaSyncRing, False


def _stage_names(model: str) -> Tuple[str, ...]:
    """Ablation stages in paper order (on-cpu applies to VGG19 only)."""
    _, _, include_cpu = _stages_for(model)
    stages = ["default"]
    if include_cpu:
        stages.append("on-cpu")
    stages.extend(_CASYNC_FLAGS)
    return tuple(stages)


def _stage_kwargs(model: str, stage: str, algorithm) -> dict:
    """simulate_iteration kwargs for one ablation stage."""
    baseline, casync_cls, _ = _stages_for(model)
    if stage == "default":
        return dict(strategy=baseline, algorithm=None)
    if stage == "on-cpu":
        return dict(strategy=BytePSOSSCompression(worker_on_cpu=True),
                    algorithm=algorithm)
    if stage in _CASYNC_FLAGS:
        return dict(strategy=casync_cls(**_CASYNC_FLAGS[stage]),
                    algorithm=algorithm)
    raise ValueError(f"unknown ablation stage {stage!r}")


def jobs(num_nodes: int = 16,
         models: Tuple[str, ...] = ("vgg19", "bert-base")) -> List[JobSpec]:
    """One job per (model, ablation stage) simulation."""
    return [
        JobSpec(artifact="fig11",
                job_id=f"fig11/{model}-{stage}-n{num_nodes}",
                module=__name__,
                params={"model": model, "stage": stage,
                        "num_nodes": num_nodes})
        for model in models
        for stage in _stage_names(model)
    ]


def run_job(model: str, stage: str, num_nodes: int) -> Dict:
    cluster = local_1080ti_cluster(num_nodes)
    algorithm = default_algorithm("onebit")
    kwargs = _stage_kwargs(model, stage, algorithm)
    strategy = kwargs.pop("strategy")
    result = simulate_iteration(model_spec(model), cluster, strategy,
                                **kwargs)
    return {"sync_time": result.exposed_sync_time,
            "compute_time": result.compute_time}


def assemble(payloads: Mapping[str, Dict], num_nodes: int = 16,
             models: Tuple[str, ...] = ("vgg19", "bert-base")
             ) -> Dict[str, List[AblationStage]]:
    out: Dict[str, List[AblationStage]] = {}
    for model in models:
        rows: List[AblationStage] = []
        previous_sync = None
        for stage_name in _stage_names(model):
            payload = payloads[f"fig11/{model}-{stage_name}-n{num_nodes}"]
            sync = payload["sync_time"]
            delta = (None if previous_sync in (None, 0)
                     else sync / previous_sync - 1.0)
            # on-cpu is measured against default, later stages against the
            # previous stage, matching the paper's narrative.
            if stage_name == "on-gpu" and previous_sync is not None:
                base_sync = rows[0].sync_time
                delta = sync / base_sync - 1.0 if base_sync else None
            rows.append(AblationStage(
                stage=stage_name, sync_time=sync,
                compute_time=payload["compute_time"],
                delta_vs_previous=delta,
                paper_delta=PAPER_DELTAS[model].get(stage_name)))
            if stage_name != "on-cpu":
                previous_sync = sync
        out[model] = rows
    return out


def run(num_nodes: int = 16,
        models: Tuple[str, ...] = ("vgg19", "bert-base")
        ) -> Dict[str, List[AblationStage]]:
    return assemble(execute_serial(jobs(num_nodes=num_nodes, models=models)),
                    num_nodes=num_nodes, models=models)


def model_spec(name: str):
    from ..models import get_model
    return get_model(name)


def render(results: Dict[str, List[AblationStage]]) -> str:
    parts = ["Figure 11 -- impact of enabling optimizations one by one "
             "(sync cost per iteration, local cluster)"]
    for model, stages in results.items():
        rows = []
        for stage in stages:
            rows.append([
                stage.stage,
                f"{stage.sync_time * 1000:.1f} ms",
                ("" if stage.delta_vs_previous is None
                 else f"{stage.delta_vs_previous:+.1%}"),
                ("" if stage.paper_delta is None
                 else f"{stage.paper_delta:+.1%}"),
            ])
        parts.append(f"[{model}]")
        parts.append(format_table(
            ["stage", "sync cost", "delta (ours)", "delta (paper)"], rows))
    return "\n".join(parts)
