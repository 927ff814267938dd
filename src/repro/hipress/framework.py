"""HiPress: the top-level compression-aware training framework (§5).

``TrainingJob`` is the user-facing entry point: pick a model, a cluster, a
synchronization strategy (CaSync-PS or CaSync-Ring), and a compression
algorithm (by name, from the registry that CompLL auto-populates).  The
job then performs the steps §5 describes:

1. *profiling pass* -- evaluate the §3.3 formulas of the analytic
   :class:`~repro.casync.planner.CostModel` for T_enc/T_dec and T_send at
   probe sizes (the paper measures these in the first training iteration);
2. *planning* -- the selective compression & partitioning planner, which
   runs inside the plan build (:class:`~repro.casync.passes.SelectivePass`;
   :attr:`TrainingJob.plans` reports its verdicts);
3. *execution* -- simulate iterations under the CaSync architecture with
   bulk synchronization and batch compression enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..algorithms import available_algorithms
from ..algorithms.base import CompressionAlgorithm
from ..casync.planner import (PLANNER_KINDS, CostModel, GradientPlan,
                              plans_to_json)
from ..cluster import (CLUSTER_PRESETS, ClusterSpec, ec2_v100_cluster,
                       get_cluster)
from ..errors import ConfigError
from ..experiments.common import default_algorithm
from ..models import MODEL_NAMES, ModelSpec, get_model
from ..strategies import Strategy, get_strategy
from ..telemetry import TelemetryCollector
from ..training import IterationResult, make_plans, simulate_iteration

__all__ = ["Profile", "TrainingJob"]


@dataclass(frozen=True)
class Profile:
    """Profiled cost-model primitives (§3.3, Table 2) at probe sizes."""

    probe_sizes: tuple
    t_enc: tuple
    t_dec: tuple
    t_send: tuple
    compression_rate: tuple


class TrainingJob:
    """A compression-aware data-parallel training job.

    Example::

        job = TrainingJob(model="bert-large", algorithm="onebit",
                          strategy="casync-ps")
        result = job.run()
        print(result.throughput, job.plans["bert-large.g000"].partitions)
    """

    def __init__(self, model, algorithm=None,
                 strategy: str = "casync-ps",
                 cluster: Union[ClusterSpec, str, None] = None,
                 algorithm_params: Optional[Dict] = None):
        if strategy not in PLANNER_KINDS:
            raise ConfigError("strategy", strategy, PLANNER_KINDS)
        if isinstance(model, str):
            try:
                self.model: ModelSpec = get_model(model)
            except KeyError:
                raise ConfigError("model", model, MODEL_NAMES) from None
        else:
            self.model = model
        if algorithm is None:
            algorithm = "onebit"                 # the historical default
        if isinstance(algorithm, str):
            try:
                self.algorithm: CompressionAlgorithm = default_algorithm(
                    algorithm, **(algorithm_params or {}))
            except KeyError:
                raise ConfigError("algorithm", algorithm,
                                  available_algorithms()) from None
        else:
            self.algorithm = algorithm
        self.strategy_name = strategy
        if isinstance(cluster, str):
            try:
                cluster = get_cluster(cluster)
            except KeyError:
                raise ConfigError("cluster", cluster,
                                  CLUSTER_PRESETS) from None
        self.cluster = cluster or ec2_v100_cluster()
        self._planner_kind = PLANNER_KINDS[strategy]
        self._plans: Optional[Dict[str, GradientPlan]] = None
        self._profile: Optional[Profile] = None

    # -- step 1: profiling ---------------------------------------------------

    def profile(self, probe_sizes=(64 * 1024, 1 << 20, 16 << 20, 128 << 20)
                ) -> Profile:
        """Evaluate the cost-model primitives at ``probe_sizes``.

        Probes go through the bottleneck-aware :class:`CostModel`, so on a
        heterogeneous cluster the profile reflects the slowest GPU and the
        slowest link -- what BSP planning must cost against.  Homogeneous
        clusters profile identically to the single-spec model.
        """
        if self._profile is None:
            cost = CostModel(self.cluster, self.algorithm,
                             strategy=self._planner_kind)
            self._profile = Profile(
                probe_sizes=tuple(probe_sizes),
                t_enc=tuple(cost.t_enc(s) for s in probe_sizes),
                t_dec=tuple(cost.t_dec(s) for s in probe_sizes),
                t_send=tuple(cost.t_send(s) for s in probe_sizes),
                compression_rate=tuple(
                    cost.compression_rate(s) for s in probe_sizes))
        return self._profile

    # -- step 2: planning ----------------------------------------------------

    @property
    def plans(self) -> Dict[str, GradientPlan]:
        """The planner's verdicts, as a selective :meth:`run` applies them."""
        if self._plans is None:
            self._plans = make_plans(self.model, self.cluster,
                                     self.algorithm, self._planner_kind)
        return self._plans

    # -- step 3: execution -----------------------------------------------------

    def run(self, pipelining: bool = True, bulk: bool = True,
            selective: bool = True,
            telemetry: Optional[TelemetryCollector] = None
            ) -> IterationResult:
        """Simulate one steady-state iteration and return its metrics.

        Pass ``telemetry=`` a :class:`~repro.telemetry.TelemetryCollector`
        to record spans and metrics for this run (the ambient collector
        from :func:`repro.telemetry.attach` is used otherwise).  A
        compression policy runs through :func:`repro.adaptive.run_policy`.
        """
        strategy: Strategy = get_strategy(
            self.strategy_name, pipelining=pipelining, bulk=bulk,
            selective=selective)
        return simulate_iteration(
            self.model, self.cluster, strategy, algorithm=self.algorithm,
            telemetry=telemetry)

    def save_plans(self, path) -> None:
        """Export the planner's per-gradient decisions as JSON."""
        from pathlib import Path
        Path(path).write_text(plans_to_json(self.plans))

    def summary(self) -> str:
        plans = self.plans
        compressed = sum(1 for p in plans.values() if p.compress)
        return (
            f"HiPress job: {self.model.name} x {self.cluster.name} "
            f"({self.cluster.total_gpus} GPUs), {self.strategy_name} + "
            f"{self.algorithm.name}; plan compresses {compressed}/"
            f"{len(plans)} gradients")
